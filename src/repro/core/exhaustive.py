"""Exhaustive (provably optimal) test point insertion for small instances.

Enumerates placements in increasing cardinality with cost-based pruning, so
the returned solution is a true minimum-cost feasible placement — the
optimality oracle the DP is validated against (experiment T2).  Complexity
is exponential; keep instances below ~15 candidate sites.

The feasibility predicate is pluggable: pass
:func:`repro.core.dp.quantized_tree_checker` (built once per problem) to score
with the DP's quantized algebra, or leave the default continuous COP
evaluator for model-level optimality.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..resilience import Budget
from ..sim.faults import Fault, testable_stuck_at_faults
from .problem import TestPoint, TestPointType, TPIProblem, TPISolution
from .virtual import evaluate_placement

__all__ = ["solve_exhaustive"]

FeasibilityCheck = Callable[[Sequence[TestPoint]], bool]


def _default_check(
    problem: TPIProblem, faults: Optional[Sequence[Fault]]
) -> FeasibilityCheck:
    if faults is None:
        faults = testable_stuck_at_faults(problem.circuit)

    def check(points: Sequence[TestPoint]) -> bool:
        return evaluate_placement(problem, points).is_feasible(faults)

    return check


def _conflicting(combo: Sequence[TestPoint]) -> bool:
    """True when two control points land on the same wire."""
    seen: Set[Tuple[str, Optional[Tuple[str, int]]]] = set()
    for tp in combo:
        if not tp.kind.is_control:
            continue
        key = (tp.node, tp.branch)
        if key in seen:
            return True
        seen.add(key)
    return False


def solve_exhaustive(
    problem: TPIProblem,
    faults: Optional[Sequence[Fault]] = None,
    candidate_sites: Optional[Sequence[str]] = None,
    feasibility: Optional[FeasibilityCheck] = None,
    max_subset_size: int = 6,
    budget: Optional[Budget] = None,
) -> TPISolution:
    """Search every placement subset (by increasing size) for minimum cost.

    Parameters
    ----------
    candidate_sites:
        Stem sites to consider (default: every node in the circuit).
    feasibility:
        Predicate deciding whether a placement makes the instance feasible
        (default: the continuous COP evaluator over ``faults``).
    max_subset_size:
        Safety cap on enumerated subset cardinality.
    budget:
        Optional cooperative budget; the wall clock is checked before every
        feasibility evaluation (the exponential part of the search).

    The search is exact: it stops growing subsets once even the cheapest
    ``k``-subset cannot beat the best feasible cost found.
    """
    if feasibility is None:
        feasibility = _default_check(problem, faults)
    if candidate_sites is None:
        candidate_sites = list(problem.circuit.node_names)

    options: List[TestPoint] = []
    for site in candidate_sites:
        for kind in problem.allowed_types:
            options.append(TestPoint(site, kind))
    min_unit = min(problem.costs.of(k) for k in problem.allowed_types)

    best_points: Optional[List[TestPoint]] = None
    best_cost = float("inf")
    checked = 0

    limit = max_subset_size
    if problem.max_points is not None:
        limit = min(limit, problem.max_points)

    for size in range(0, limit + 1):
        if size * min_unit >= best_cost:
            break
        for combo in itertools.combinations(options, size):
            cost = problem.costs.total(combo)
            if cost >= best_cost:
                continue
            if _conflicting(combo):
                continue
            if budget is not None:
                budget.tick("exhaustive.search")
            checked += 1
            if feasibility(combo):
                best_cost = cost
                best_points = list(combo)
        # A feasible solution of size k may still be beaten by a cheaper
        # (k+1)-subset only if unit costs differ; the loop guard handles it.

    if best_points is None:
        return TPISolution(
            points=[],
            cost=float("inf"),
            feasible=False,
            method="exhaustive",
            stats={"checked": float(checked)},
        )
    return TPISolution(
        points=best_points,
        cost=best_cost,
        feasible=True,
        method="exhaustive",
        stats={"checked": float(checked)},
    )
