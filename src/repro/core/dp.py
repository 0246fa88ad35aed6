"""The dynamic program for optimal test point insertion on tree circuits.

This is the paper's contribution: on a **fanout-free** circuit (every node
drives at most one pin, so each output cone is a tree) the TPI problem has
optimal substructure, and a bottom-up table computation finds a minimum-cost
placement in polynomial time — versus the NP-complete general case.

State
-----
For a node ``n``, let ``o`` be the observability the *environment* grants
``n``'s post-control-point line (through its parent's side inputs, or 1.0
at an observed root), and ``p`` the signal probability ``n`` presents to its
parent after any control point.  The value function is::

    F[n][o][p] = minimum cost of decisions inside subtree(n) such that
                 every enforced fault in subtree(n) meets θ, given the
                 environment observability is o and the resulting
                 downstream probability of n is p.

Both ``o`` and ``p`` live on a :class:`~repro.core.quantize.ProbabilityGrid`
(resolution B), so the tables are finite: the algorithm is exact with
respect to the quantized probability algebra and runs in
``O(|C| · B³ · |decisions|)`` time in the worst case (see DESIGN.md §2 and
experiment F4 for the accuracy/runtime trade-off in B).

Decisions per node: an optional observation point (taps the wire *before*
the control point) × an optional control point (AND-type, OR-type, or
full random re-drive).  Decision semantics match
:mod:`repro.core.problem` exactly; solutions are verified against the
continuous evaluator in the test suite.
"""

from __future__ import annotations

import functools
import itertools
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .. import obs
from ..circuit.analysis import is_fanout_free
from ..errors import SolverError
from ..resilience import Budget
from ..circuit.gates import (
    GateType,
    output_probability,
    side_input_sensitization_probability,
)
from ..circuit.netlist import Node
from .problem import (
    TestPoint,
    TestPointType,
    TPIProblem,
    TPISolution,
    control_observability_factor,
    control_probability_transform,
)
from .quantize import ProbabilityGrid

__all__ = [
    "DPSolver",
    "solve_tree",
    "quantized_tree_check",
    "quantized_tree_checker",
]

#: A (observation?, control-type-or-None) decision at one node.
_Decision = Tuple[bool, Optional[TestPointType]]


class _Entry(NamedTuple):
    """One cell of the DP table: best known way to realize a ``p`` bucket."""

    cost: float
    decision: _Decision
    # (child_name, child_o_idx, child_p_idx) back-pointers.
    children: Tuple[Tuple[str, int, int], ...]


#: One decision as the table fill consumes it: its cost, the decision,
#: and its slot in a post-control bucket tuple (see ``DPSolver._posts``).
_Item = Tuple[float, _Decision, int]

#: The decisions sharing one wire observability: ``(wire_obs,
#: floor bucket of wire_obs, items)``.
_Group = Tuple[float, int, List[_Item]]


def _post_buckets(
    grid: ProbabilityGrid,
    cp_slots: Tuple[Optional[TestPointType], ...],
    p_pre: float,
) -> Tuple[int, ...]:
    """Post-control bucket of ``p_pre`` under each control slot."""
    return tuple(
        grid.index(control_probability_transform(cp, p_pre) if cp else p_pre)
        for cp in cp_slots
    )


class _GateTables:
    """Lookup tables of one gate type on one grid, filled on first use."""

    __slots__ = ("_gate_type", "_grid", "_cp_slots", "_sens", "_rows", "_obs")

    def __init__(
        self,
        gate_type: GateType,
        grid: ProbabilityGrid,
        cp_slots: Tuple[Optional[TestPointType], ...],
    ) -> None:
        self._gate_type = gate_type
        self._grid = grid
        self._cp_slots = cp_slots
        self._sens = [
            side_input_sensitization_probability(gate_type, [v])
            for v in grid.values()
        ]
        self._rows: List[
            Optional[Tuple[List[float], List[Tuple[int, ...]]]]
        ] = [None] * len(grid)
        self._obs: Dict[float, List[int]] = {}

    def row(self, a: int) -> Tuple[List[float], List[Tuple[int, ...]]]:
        """Output probability for input buckets ``a``, ``b`` and its
        post-control buckets per control slot, as two lists over ``b``."""
        row = self._rows[a]
        if row is None:
            va = self._grid.value(a)
            probs = [
                output_probability(self._gate_type, [va, vb])
                for vb in self._grid.values()
            ]
            posts = [_post_buckets(self._grid, self._cp_slots, p) for p in probs]
            row = self._rows[a] = (probs, posts)
        return row

    def child_obs(self, wire_obs: float) -> List[int]:
        """Child observability bucket per sibling probability bucket."""
        obs_of = self._obs.get(wire_obs)
        if obs_of is None:
            floor_index = self._grid.floor_index
            obs_of = self._obs[wire_obs] = [
                floor_index(wire_obs * s) for s in self._sens
            ]
        return obs_of


@functools.lru_cache(maxsize=32)
def _gate_tables(
    values: Tuple[float, ...],
    gate_type: GateType,
    cp_slots: Tuple[Optional[TestPointType], ...],
) -> _GateTables:
    """The :class:`_GateTables` of a grid, shared by every solver on it.

    They depend on nothing but the arguments, and the region heuristic
    (:mod:`repro.core.heuristic`) runs many small DPs on one grid.
    """
    return _GateTables(gate_type, ProbabilityGrid(values=values), cp_slots)


class DPSolver:
    """Bottom-up DP over a fanout-free circuit.

    Parameters
    ----------
    problem:
        The TPI instance; its circuit must be fanout-free with gate fan-in
        ≤ 2 (run :func:`repro.circuit.transforms.factorize_to_two_input`
        first if needed).
    grid:
        Probability quantization grid (default resolution 16).
    root_observabilities:
        Environment observability per root node (default 1.0 — a directly
        observed output).  Used by the region decomposition driver.
    leaf_probabilities:
        Signal probability per leaf (default: the problem's input
        probabilities).  Used by the region driver to stand in boundary
        signals.
    enforced_faults:
        Optional map node → ``(check_sa0, check_sa1)`` overriding which
        polarities are enforced at that node's wire.  Defaults are derived
        from the gate type (tie cells enforce only their detectable fault).
    budget:
        Optional cooperative :class:`~repro.resilience.Budget`; the wall
        clock is checked and ``dp_cells`` charged at every memoized table,
        raising :class:`~repro.errors.BudgetExceededError` mid-solve.

    Tables are filled from lookup tables (DESIGN.md §2): each decision's
    cost, the decision groups per environment bucket, and per gate type
    the output probability, its post-control buckets and the child
    observability buckets of every child bucket pair, so the per-pair
    loop only adds costs and keeps the cheaper entry.
    """

    def __init__(
        self,
        problem: TPIProblem,
        grid: Optional[ProbabilityGrid] = None,
        root_observabilities: Optional[Mapping[str, float]] = None,
        leaf_probabilities: Optional[Mapping[str, float]] = None,
        enforced_faults: Optional[Mapping[str, Tuple[bool, bool]]] = None,
        margin: float = 1.0,
        budget: Optional[Budget] = None,
    ) -> None:
        if margin < 1.0:
            raise SolverError("margin must be ≥ 1")
        circuit = problem.circuit
        circuit.validate()
        if not is_fanout_free(circuit):
            raise SolverError(
                "the DP is exact only on fanout-free circuits; use "
                "repro.core.heuristic for circuits with fanout"
            )
        for node in circuit.gates:
            if len(node.fanins) > 2:
                raise SolverError(
                    "factorize the circuit to ≤2-input gates before the DP"
                )
        dead_gates = [
            n for n in circuit.floating_nodes() if circuit.node(n).is_gate
        ]
        if dead_gates:
            raise SolverError(
                f"dead logic present (sweep first): {dead_gates[:5]}"
            )
        # Unused primary inputs carry structurally untestable faults; they
        # are excluded from planning (matching testable_stuck_at_faults).
        self._floating_inputs = {
            n for n in circuit.floating_nodes() if circuit.node(n).is_input
        }
        self.problem = problem
        self.circuit = circuit
        self.budget = budget
        self.margin = margin
        self.threshold = min(problem.threshold * margin, 1.0)
        self.grid = grid or ProbabilityGrid.for_threshold(self.threshold)
        self._root_obs = dict(root_observabilities or {})
        self._leaf_probs = dict(leaf_probabilities or {})
        self._enforced = dict(enforced_faults or {})
        self._out_set = set(circuit.outputs)
        self._tables: Dict[Tuple[str, int], Dict[int, _Entry]] = {}
        # Slot 0 of a post-bucket tuple is "no control point"; slot k is
        # the k-th allowed control type.
        self._cp_slots: Tuple[Optional[TestPointType], ...] = (
            None,
            *problem.control_types(),
        )
        self._items: List[_Item] = [
            (self._decision_cost(d), d, self._cp_slots.index(d[1]))
            for d in self._decision_space()
        ]
        self._table_cells = 0
        self._decisions_enumerated = 0
        self._grid_key = tuple(self.grid.values())
        self._posts_memo: Dict[float, Tuple[int, ...]] = {}
        self._group_memo: Dict[Tuple[int, bool], List[_Group]] = {}

    # ------------------------------------------------------------------
    def _decision_space(self) -> List[_Decision]:
        op_options = [False]
        if self.problem.observation_allowed:
            op_options.append(True)
        return list(itertools.product(op_options, self._cp_slots))

    def _decision_cost(self, decision: _Decision) -> float:
        op, cp = decision
        cost = self.problem.costs.observation if op else 0.0
        if cp is not None:
            cost += self.problem.costs.of(cp)
        return cost

    def _enforced_at(self, name: str) -> Tuple[bool, bool]:
        """Which stuck-at polarities must meet θ at this node's wire."""
        override = self._enforced.get(name)
        if override is not None:
            return override
        node = self.circuit.node(name)
        if node.gate_type is GateType.CONST0:
            return (False, True)  # only s-a-1 is a fault of a tied-0 cell
        if node.gate_type is GateType.CONST1:
            return (True, False)
        return (True, True)

    def _leaf_probability(self, name: str) -> float:
        if name in self._leaf_probs:
            return self._leaf_probs[name]
        return self.problem.input_probability(name)

    @staticmethod
    def _combine(a: float, b: float) -> float:
        """Independent-event observability combination."""
        return 1.0 - (1.0 - a) * (1.0 - b)

    # ------------------------------------------------------------------
    def _groups(self, o_idx: int, must_check: bool) -> List[_Group]:
        """Decisions grouped by the wire observability they leave (cached).

        Decisions sharing a wire observability share the expensive child
        enumeration and the fault feasibility check.  With faults to
        check, a wire observability below θ is dropped: no excitation can
        rescue a dead wire.
        """
        key = (o_idx, must_check)
        cached = self._group_memo.get(key)
        if cached is not None:
            return cached
        o_env = self.grid.value(o_idx)
        theta = self.threshold - 1e-12
        by_obs: Dict[float, List[_Item]] = {}
        for item in self._items:
            op, cp = item[1]
            factor = control_observability_factor(cp) if cp else 1.0
            wire_obs = self._combine(1.0 if op else 0.0, factor * o_env)
            if must_check and wire_obs < theta:
                continue
            by_obs.setdefault(wire_obs, []).append(item)
        groups = [
            (wire_obs, self.grid.floor_index(wire_obs), items)
            for wire_obs, items in by_obs.items()
        ]
        self._group_memo[key] = groups
        return groups

    def _posts(self, p_pre: float) -> Tuple[int, ...]:
        """Post-control bucket of ``p_pre`` per control slot (cached)."""
        cached = self._posts_memo.get(p_pre)
        if cached is None:
            cached = _post_buckets(self.grid, self._cp_slots, p_pre)
            self._posts_memo[p_pre] = cached
        return cached

    def _commit(
        self,
        table: Dict[int, _Entry],
        checks: Tuple[bool, bool],
        p_pre: float,
        wire_obs: float,
        items: List[_Item],
        base_cost: float,
        children: Tuple[Tuple[str, int, int], ...],
    ) -> None:
        """Enter every decision of one group for one pre-control ``p``.

        An entry is replaced only when cheaper by more than 1e-12, so the
        first of equally cheap decisions (in enumeration order) is kept.
        The binary-gate loop in :meth:`_fill_binary` inlines this body.
        """
        theta = self.threshold - 1e-12
        if checks[0] and p_pre * wire_obs < theta:
            return
        if checks[1] and (1.0 - p_pre) * wire_obs < theta:
            return
        self._decisions_enumerated += len(items)
        posts = self._posts(p_pre)
        for dcost, decision, slot in items:
            p_idx = posts[slot]
            cost = base_cost + dcost
            existing = table.get(p_idx)
            if existing is None or cost < existing.cost - 1e-12:
                table[p_idx] = _Entry(cost, decision, children)

    def _table(self, name: str, o_idx: int) -> Dict[int, _Entry]:
        """Memoized DP table of node ``name`` under environment obs bucket."""
        # An observed node's post-CP line is directly visible regardless of
        # what the parent contributes.
        if name in self._out_set:
            o_idx = self.grid.top_index
        key = (name, o_idx)
        cached = self._tables.get(key)
        if cached is not None:
            return cached
        if self.budget is not None:
            self.budget.tick("dp.table")

        node = self.circuit.node(name)
        table: Dict[int, _Entry] = {}
        checks = self._enforced_at(name)
        groups = self._groups(o_idx, checks[0] or checks[1])

        if node.is_input or not node.fanins:
            if node.is_input:
                p_pre = self._leaf_probability(name)
            else:  # tie cell
                p_pre = 1.0 if node.gate_type is GateType.CONST1 else 0.0
            for wire_obs, _top_o, items in groups:
                self._commit(table, checks, p_pre, wire_obs, items, 0.0, ())
        elif len(node.fanins) == 1:
            child = node.fanins[0]
            gt = node.gate_type
            value = self.grid.value
            for wire_obs, child_o_idx, items in groups:
                # Unary gates pass observability through unchanged.
                child_table = self._table(child, child_o_idx)
                for pc_idx, centry in child_table.items():
                    self._commit(
                        table,
                        checks,
                        output_probability(gt, [value(pc_idx)]),
                        wire_obs,
                        items,
                        centry.cost,
                        ((child, child_o_idx, pc_idx),),
                    )
        else:
            self._fill_binary(table, node, checks, groups)

        self._tables[key] = table
        self._table_cells += len(table)
        if self.budget is not None:
            self.budget.charge("dp_cells", len(table), "dp.table")
        return table

    def _fill_binary(
        self,
        table: Dict[int, _Entry],
        node: Node,
        checks: Tuple[bool, bool],
        groups: List[_Group],
    ) -> None:
        """Min-plus over the child bucket pairs of a two-input gate.

        Child tables are fetched once per (child, o-bucket), in the order
        of first use, so recursion — and with it every budget tick and
        charge — happens in the same order as a per-pair memo lookup.
        """
        child_a, child_b = node.fanins
        gt = node.gate_type
        tables = _gate_tables(self._grid_key, gt, self._cp_slots)
        check0, check1 = checks
        theta = self.threshold - 1e-12
        n_buckets = len(self.grid)
        # Child tables by o-bucket, and the cost held per p bucket (inf
        # while empty; ``inf - 1e-12`` is inf, so the first entry lands).
        tables_a: List[Optional[Dict[int, _Entry]]] = [None] * n_buckets
        tables_b: List[Optional[Dict[int, _Entry]]] = [None] * n_buckets
        best = [float("inf")] * n_buckets
        for wire_obs, top_o, items in groups:
            n_items = len(items)
            ob_of = tables.child_obs(wire_obs)
            # Raising observability only relaxes subtree constraints, so
            # the table at the *maximum* child observability carries a
            # superset of every achievable probability bucket — iterate
            # achievable states only, not the whole grid.
            ref_a = tables_a[top_o]
            if ref_a is None:
                ref_a = tables_a[top_o] = self._table(child_a, top_o)
            for pa_idx in ref_a:
                o_b_idx = ob_of[pa_idx]
                table_b = tables_b[o_b_idx]
                if table_b is None:
                    table_b = tables_b[o_b_idx] = self._table(child_b, o_b_idx)
                if not table_b:
                    continue
                probs, post_row = tables.row(pa_idx)
                for pb_idx, bentry in table_b.items():
                    o_a_idx = ob_of[pb_idx]
                    table_a = tables_a[o_a_idx]
                    if table_a is None:
                        table_a = tables_a[o_a_idx] = self._table(
                            child_a, o_a_idx
                        )
                    aentry = table_a.get(pa_idx)
                    if aentry is None:
                        continue
                    p_pre = probs[pb_idx]
                    if check0 and p_pre * wire_obs < theta:
                        continue
                    if check1 and (1.0 - p_pre) * wire_obs < theta:
                        continue
                    self._decisions_enumerated += n_items
                    base_cost = aentry.cost + bentry.cost
                    posts = post_row[pb_idx]
                    children = None
                    for dcost, decision, slot in items:
                        p_idx = posts[slot]
                        cost = base_cost + dcost
                        if cost < best[p_idx] - 1e-12:
                            if children is None:
                                children = (
                                    (child_a, o_a_idx, pa_idx),
                                    (child_b, o_b_idx, pb_idx),
                                )
                            table[p_idx] = _Entry(cost, decision, children)
                            best[p_idx] = cost

    # ------------------------------------------------------------------
    def _roots(self) -> List[str]:
        return [
            name
            for name in self.circuit.topological_order()
            if self.circuit.fanout_count(name) == 0
            and name not in self._floating_inputs
        ]

    def solve(self) -> TPISolution:
        """Run the DP and return the minimum-cost placement."""
        with obs.span(
            "dp.solve",
            circuit=self.circuit.name,
            grid_size=len(self.grid),
            threshold=self.threshold,
        ) as sp:
            total_cost = 0.0
            picks: List[Tuple[str, int, int]] = []
            feasible = True
            for root in self._roots():
                env = self._root_obs.get(root, 1.0)
                o_idx = self.grid.floor_index(env)
                table = self._table(root, o_idx)
                if not table:
                    feasible = False
                    continue
                best_p = min(table, key=lambda p: (table[p].cost, p))
                total_cost += table[best_p].cost
                picks.append((root, o_idx, best_p))

            points: List[TestPoint] = []
            stack = list(picks)
            while stack:
                name, o_idx, p_idx = stack.pop()
                if name in self._out_set:
                    o_idx = self.grid.top_index
                entry = self._tables[(name, o_idx)][p_idx]
                op, cp = entry.decision
                if op:
                    points.append(TestPoint(name, TestPointType.OBSERVATION))
                if cp is not None:
                    points.append(TestPoint(name, cp))
                stack.extend(entry.children)

            sp.set(
                table_cells=self._table_cells,
                decisions=self._decisions_enumerated,
                feasible=feasible,
                points=len(points),
            )
        obs.count("dp.solves")
        obs.count("dp.table_cells", self._table_cells)
        obs.count("dp.tables", len(self._tables))
        obs.count("dp.decisions", self._decisions_enumerated)
        obs.gauge("dp.grid_size", len(self.grid))
        if obs.enabled():
            # Per-node state-space sizes: how many (o, p) cells each
            # memoized table actually carries under the pruning.
            for table in self._tables.values():
                obs.observe("dp.states_per_node", len(table))

        return TPISolution(
            points=points,
            cost=self.problem.costs.total(points) if feasible else float("inf"),
            feasible=feasible,
            method="dp",
            stats={
                "table_cells": float(self._table_cells),
                "tables": float(len(self._tables)),
                "decisions": float(self._decisions_enumerated),
                "grid_size": float(len(self.grid)),
            },
        )


def quantized_tree_checker(
    problem: TPIProblem,
    grid: Optional[ProbabilityGrid] = None,
    root_observabilities: Optional[Mapping[str, float]] = None,
    leaf_probabilities: Optional[Mapping[str, float]] = None,
    enforced_faults: Optional[Mapping[str, Tuple[bool, bool]]] = None,
    margin: float = 1.0,
) -> Callable[[Sequence[TestPoint]], bool]:
    """The predicate of :func:`quantized_tree_check`, set up once per problem.

    Validation, θ, the grid, the topological order, the source
    probabilities, the enforced polarities and the root environments are
    computed here; the returned predicate runs only the forward and
    backward passes for one placement.  It reads no DP table, so it stays
    an independent oracle for the DP (exhaustive search scores thousands
    of placements with one predicate).
    """
    # The solver object supplies the validation, θ, grid and per-node
    # lookups shared with the DP; no table is ever filled.
    setup = DPSolver(
        problem,
        grid=grid,
        root_observabilities=root_observabilities,
        leaf_probabilities=leaf_probabilities,
        enforced_faults=enforced_faults,
        margin=margin,
    )
    grid = setup.grid
    circuit = problem.circuit
    order = circuit.topological_order()
    nodes = {name: circuit.node(name) for name in order}
    theta = setup.threshold - 1e-12
    enforced = {name: setup._enforced_at(name) for name in order}
    root_obs = dict(root_observabilities or {})
    out_set = set(circuit.outputs)
    sources: Dict[str, float] = {}
    root_env: Dict[str, float] = {}
    for name in order:
        node = nodes[name]
        if node.is_input:
            sources[name] = setup._leaf_probability(name)
        elif not node.fanins:
            sources[name] = 1.0 if node.gate_type is GateType.CONST1 else 0.0
        if name in out_set:
            root_env[name] = 1.0
        elif circuit.fanout_count(name) == 0:
            root_env[name] = grid.value(
                grid.floor_index(root_obs.get(name, 1.0))
            )

    def check(points: Sequence[TestPoint]) -> bool:
        by_site: Dict[str, List[TestPoint]] = {}
        for tp in points:
            if tp.branch is not None:
                raise ValueError("tree placements are stem-only")
            by_site.setdefault(tp.node, []).append(tp)

        def site_decision(name: str) -> _Decision:
            tps = by_site.get(name, ())
            op = any(t.kind is TestPointType.OBSERVATION for t in tps)
            controls = [t.kind for t in tps if t.kind.is_control]
            if len(controls) > 1:
                raise ValueError(f"multiple control points at {name!r}")
            return (op, controls[0] if controls else None)

        # Forward pass: quantized downstream probabilities.
        p_pre: Dict[str, float] = {}
        p_post_q: Dict[str, float] = {}
        for name in order:
            pre = sources.get(name)
            if pre is None:
                node = nodes[name]
                pre = output_probability(
                    node.gate_type, [p_post_q[fi] for fi in node.fanins]
                )
            _op, cp = site_decision(name)
            post = control_probability_transform(cp, pre) if cp else pre
            p_pre[name] = pre
            p_post_q[name] = grid.quantize(post)

        # Backward pass: quantized environment observabilities + fault checks.
        o_env: Dict[str, float] = {}
        for name in reversed(order):
            env = root_env.get(name)
            if env is None:
                env = o_env[name]
            op, cp = site_decision(name)
            factor = control_observability_factor(cp) if cp else 1.0
            wire = DPSolver._combine(1.0 if op else 0.0, factor * env)
            check0, check1 = enforced[name]
            if check0 and p_pre[name] * wire < theta:
                return False
            if check1 and (1.0 - p_pre[name]) * wire < theta:
                return False
            node = nodes[name]
            for pin, fi in enumerate(node.fanins):
                side = [
                    p_post_q[other]
                    for p, other in enumerate(node.fanins)
                    if p != pin
                ]
                sens = side_input_sensitization_probability(node.gate_type, side)
                o_env[fi] = grid.value(grid.floor_index(wire * sens))
        return True

    return check


def quantized_tree_check(
    problem: TPIProblem,
    points: Sequence[TestPoint],
    grid: Optional[ProbabilityGrid] = None,
    root_observabilities: Optional[Mapping[str, float]] = None,
    leaf_probabilities: Optional[Mapping[str, float]] = None,
    enforced_faults: Optional[Mapping[str, Tuple[bool, bool]]] = None,
    margin: float = 1.0,
) -> bool:
    """Feasibility of a placement under the DP's *quantized* algebra.

    Mirrors the DP's rounding exactly (probabilities round to nearest,
    observabilities floor at every parent→child handoff), so exhaustive
    search over placements scored by this function optimizes precisely the
    objective the DP optimizes — the apples-to-apples optimality oracle of
    experiment T2.  Only stem placements are meaningful on trees.  To
    score many placements of one problem, build the predicate once with
    :func:`quantized_tree_checker`.
    """
    return quantized_tree_checker(
        problem,
        grid=grid,
        root_observabilities=root_observabilities,
        leaf_probabilities=leaf_probabilities,
        enforced_faults=enforced_faults,
        margin=margin,
    )(points)


def solve_tree(
    problem: TPIProblem,
    grid: Optional[ProbabilityGrid] = None,
    root_observabilities: Optional[Mapping[str, float]] = None,
    leaf_probabilities: Optional[Mapping[str, float]] = None,
    enforced_faults: Optional[Mapping[str, Tuple[bool, bool]]] = None,
    margin: float = 1.0,
    budget: Optional[Budget] = None,
) -> TPISolution:
    """Convenience wrapper: construct a :class:`DPSolver` and solve.

    ``margin > 1`` makes the DP plan against ``θ × margin``, buying back the
    quantization slack so solutions also satisfy the *continuous* COP model
    (margin ≈ 1.5–2 suffices empirically; see the verification tests).

    Under an ambient :class:`repro.verify.GuardedSession` the returned
    solution is independently certified — re-checked with
    :func:`quantized_tree_check` under this solve's exact grid and
    context — before being handed back.
    """
    solution = DPSolver(
        problem,
        grid=grid,
        root_observabilities=root_observabilities,
        leaf_probabilities=leaf_probabilities,
        enforced_faults=enforced_faults,
        margin=margin,
        budget=budget,
    ).solve()
    # Runtime-lazy: repro.verify imports solver modules.
    from ..verify.certify import maybe_certify

    def dp_check(points) -> bool:
        return quantized_tree_check(
            problem,
            points,
            grid=grid,
            root_observabilities=root_observabilities,
            leaf_probabilities=leaf_probabilities,
            enforced_faults=enforced_faults,
            margin=margin,
        )

    dp_context = {
        "grid_values": list(grid.values()) if grid is not None else None,
        "root_observabilities": (
            dict(root_observabilities)
            if root_observabilities is not None
            else None
        ),
        "leaf_probabilities": (
            dict(leaf_probabilities) if leaf_probabilities is not None else None
        ),
        "enforced_faults": (
            {k: list(v) for k, v in enforced_faults.items()}
            if enforced_faults is not None
            else None
        ),
        "margin": margin,
    }
    return maybe_certify(
        problem, solution, dp_check=dp_check, dp_context=dp_context
    )
