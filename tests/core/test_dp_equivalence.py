"""DP equivalence gate: every memo table, bit for bit, against a golden file.

The golden file ``tests/golden/dp_tables.json`` pins, for a fixed set of
solves, a sha256 over every entry of every memo table the DP fills —
``(node, o_idx, p_idx, cost.hex(), decision, children)`` — next to the
solution's points, cost and stats.  Any change to how a table is filled
must leave all of it unchanged: the same cells, the same costs to the
last bit, the same tie-broken decisions and back-pointers.

The cases are the T2 and T3 trees, the F4 grids, the two AND/OR-type
trees the benchmark's ``tree-dp`` workload inserts on, and the region
solves ``solve_dp_heuristic`` makes on ``rdag200``.

Regenerate (only when a table change is intended) with::

    PYTHONPATH=src python -m tests.core.test_dp_equivalence
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Callable, Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import GateType, generators
from repro.circuit.library import benchmark
from repro.core import (
    TPIProblem,
    quantized_tree_checker,
    solve_exhaustive,
    solve_tree,
)
from repro.core.dp import DPSolver
from repro.core.heuristic import solve_dp_heuristic
from repro.core.prepare import prepare_for_tpi
from repro.core.quantize import ProbabilityGrid
from repro.errors import BudgetExceededError
from repro.resilience import Budget

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "dp_tables.json"


def table_digest(solver: DPSolver) -> str:
    """sha256 over every memo table entry of a solved DP, in key order."""
    h = hashlib.sha256()
    for (name, o_idx) in sorted(solver._tables):
        table = solver._tables[(name, o_idx)]
        h.update(f"T|{name}|{o_idx}|{len(table)}\n".encode())
        for p_idx in sorted(table):
            entry = table[p_idx]
            op, cp = entry.decision
            children = ";".join(f"{c},{o},{p}" for c, o, p in entry.children)
            h.update(
                f"{name}|{o_idx}|{p_idx}|{entry.cost.hex()}|{int(op)}|"
                f"{cp.value if cp else '-'}|{children}\n".encode()
            )
    return h.hexdigest()


def _record(run: Callable[[], object]) -> List[dict]:
    """Run ``run`` and summarize every DP solve it makes, in order."""
    solved: List[tuple] = []
    original = DPSolver.solve

    def recording_solve(self):
        solution = original(self)
        solved.append((self, solution))
        return solution

    DPSolver.solve = recording_solve
    try:
        run()
    finally:
        DPSolver.solve = original
    return [
        {
            "digest": table_digest(solver),
            "points": sorted(tp.describe() for tp in solution.points),
            "cost": solution.cost if solution.feasible else None,
            "stats": dict(sorted(solution.stats.items())),
        }
        for solver, solution in solved
    ]


# ---------------------------------------------------------------- cases
def _t2_case(seed: int, theta: float) -> Callable[[], object]:
    circuit = generators.random_tree(6, seed=seed)
    problem = TPIProblem(circuit=circuit, threshold=theta)
    return lambda: solve_tree(problem, grid=ProbabilityGrid.for_threshold(theta))


def _t3_case(gates: int, seed: int) -> Callable[[], object]:
    circuit = generators.random_tree(gates, seed=seed)
    problem = TPIProblem.from_test_length(
        circuit, n_patterns=4096, escape_budget=0.001
    )
    planning = TPIProblem(
        circuit=circuit,
        threshold=min(problem.threshold * 2.0, 1.0),
        costs=problem.costs,
        allowed_types=problem.allowed_types,
        input_probabilities=problem.input_probabilities,
    )
    return lambda: solve_tree(planning)


def _f4_case(ratio: float) -> Callable[[], object]:
    circuit = generators.random_tree(40, seed=2)
    problem = TPIProblem(circuit=circuit, threshold=0.01)
    grid = ProbabilityGrid.for_threshold(0.01, ratio=ratio)
    return lambda: solve_tree(problem, grid=grid)


def _heuristic_case(circuit) -> Callable[[], object]:
    problem = TPIProblem.from_test_length(prepare_for_tpi(circuit), n_patterns=4096)
    return lambda: solve_dp_heuristic(problem)


def _benchmark_trees() -> Dict[int, object]:
    """The two ``tree-dp`` benchmark trees, drawn as the workload draws them."""
    gate_types = (GateType.AND, GateType.OR, GateType.NAND, GateType.NOR)
    rng = random.Random(10)
    return {
        n: generators.random_tree(
            n, seed=rng.randrange(1 << 30), gate_types=gate_types
        )
        for n in (36, 44)
    }


def cases() -> Dict[str, Callable[[], Callable[[], object]]]:
    out: Dict[str, Callable[[], Callable[[], object]]] = {}
    for seed in range(8):
        for theta in (0.02, 0.05, 0.10):
            out[f"t2-s{seed}-{theta}"] = lambda s=seed, t=theta: _t2_case(s, t)
    for gates, seed in [(20, 0), (20, 1), (40, 2), (40, 3), (60, 4), (80, 5)]:
        out[f"t3-{gates}-s{seed}"] = lambda g=gates, s=seed: _t3_case(g, s)
    for ratio in (4.0, 2.0, 1.5, 1.25):
        out[f"f4-r{ratio}"] = lambda r=ratio: _f4_case(r)
    for n in (36, 44):
        out[f"tree{n}-heuristic"] = lambda n=n: _heuristic_case(_benchmark_trees()[n])
    out["rdag200-heuristic"] = lambda: _heuristic_case(benchmark("rdag200"))
    return out


def compute(case: str) -> List[dict]:
    return _record(cases()[case]())


# ---------------------------------------------------------------- tests
@pytest.fixture(scope="module")
def golden() -> Dict[str, List[dict]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(cases()))
def test_tables_match_golden(case, golden):
    assert compute(case) == golden[case]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())
    # Every solve was recorded (the heuristic cases make several).
    assert all(golden[c] for c in golden)


@pytest.mark.parametrize(
    "limit, spent, tables, last_table, decisions",
    [
        (0, 3, 1, ("x0", 28), 7),
        (7, 9, 3, ("x2", 11), 21),
        (40, 47, 13, ("not1", 12), 126),
        (150, 152, 39, ("x0", 22), 547),
        (600, 608, 104, ("nor3", 17), 5043),
        (8300, 8301, 927, ("xor25", 28), 211951),
    ],
)
def test_cell_budget_trips_at_the_same_table(
    limit, spent, tables, last_table, decisions
):
    """``max_dp_cells`` fires at the same table with the same charge.

    The pinned figures were taken from the scalar solver: the cell charge
    happens once per memoized table, after it is filled, so the raising
    table is the last one memoized.
    """
    circuit = generators.random_tree(20, seed=0)
    problem = TPIProblem.from_test_length(circuit, n_patterns=4096)
    solver = DPSolver(problem, margin=2.0, budget=Budget(max_dp_cells=limit))
    with pytest.raises(BudgetExceededError) as info:
        solver.solve()
    err = info.value
    assert (err.resource, err.limit, err.spent, err.where) == (
        "dp_cells", limit, spent, "dp.table"
    )
    assert len(solver._tables) == tables
    assert list(solver._tables)[-1] == last_table
    assert solver._table_cells == spent
    assert solver._decisions_enumerated == decisions


@settings(max_examples=20, deadline=None)
@given(
    gates=st.integers(1, 7),
    seed=st.integers(0, 10_000),
    theta=st.sampled_from([0.01, 0.02, 0.05, 0.08, 0.12, 0.2]),
)
def test_dp_matches_exhaustive_on_random_trees(gates, seed, theta):
    """DP cost == exhaustive optimum under the DP's own quantized algebra."""
    circuit = generators.random_tree(gates, seed=seed)
    problem = TPIProblem(circuit=circuit, threshold=theta)
    grid = ProbabilityGrid.for_threshold(theta)
    dp = solve_tree(problem, grid=grid)
    check = quantized_tree_checker(problem, grid=grid)

    # The exhaustive search is exact up to its subset cap.  A placement
    # cheaper than the DP's has fewer than cost/0.5 points (the cheapest
    # point is an OP), so a cap of that size makes the comparison exact;
    # the cap stops at 3 to bound the enumeration, and above it the DP
    # must still never be beaten.
    cheapest = min(problem.costs.of(k) for k in problem.allowed_types)
    exact_cap = int(dp.cost / cheapest + 1e-9) if dp.feasible else 3
    exhaustive = solve_exhaustive(
        problem, feasibility=check, max_subset_size=min(exact_cap, 3)
    )
    if exhaustive.feasible:
        assert dp.feasible and dp.cost <= exhaustive.cost
    if exact_cap <= 3:
        assert dp.feasible == exhaustive.feasible
        assert dp.cost == exhaustive.cost or not dp.feasible
    if dp.feasible:
        assert check(dp.points)


if __name__ == "__main__":  # regenerate the golden file
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    data = {case: compute(case) for case in sorted(cases())}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(data)} cases)")
