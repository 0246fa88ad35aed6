"""The paper's contribution: dynamic-programming test point insertion.

Public surface:

* :mod:`~repro.core.problem` — the TPI optimization problem, points, costs;
* :mod:`~repro.core.dp` — the exact tree DP (the headline algorithm);
* :mod:`~repro.core.heuristic` — DP-on-regions for general circuits;
* :mod:`~repro.core.greedy` / :mod:`~repro.core.random_placement` /
  :mod:`~repro.core.exhaustive` — baselines and the optimality oracle;
* :mod:`~repro.core.cascade` — budget-aware solver degradation
  (``exhaustive → dp → greedy → random``);
* :mod:`~repro.core.virtual` — analytical placement evaluation;
* :mod:`~repro.core.incremental` — dirty-cone incremental evaluation
  (the solvers' fast path; bit-identical to the virtual evaluator);
* :mod:`~repro.core.test_points` — physical hardware insertion;
* :mod:`~repro.core.evaluate` — end-to-end measured-coverage pipeline;
* :mod:`~repro.core.npc` — the executable NP-completeness reduction.
"""

from .cascade import DEFAULT_CASCADE, SOLVER_CASCADE, solve_with_fallback
from .dp import DPSolver, quantized_tree_check, quantized_tree_checker, solve_tree
from .evaluate import CoverageReport, evaluate_solution, measure_coverage
from .exhaustive import solve_exhaustive
from .greedy import solve_greedy
from .heuristic import solve_dp_heuristic
from .incremental import IncrementalEvaluator
from .npc import (
    brute_force_sat,
    cnf_to_circuit,
    is_satisfiable_via_testability,
    output_excitation_fault,
    random_cnf,
)
from .problem import (
    CONTROL_TYPES,
    TestPoint,
    TestPointCosts,
    TestPointType,
    TPIProblem,
    TPISolution,
    control_observability_factor,
    control_probability_transform,
)
from .phases import (
    PhasePlan,
    evaluate_phase,
    measure_phase_coverage,
    phase_escape_probabilities,
    schedule_phases,
)
from .prepare import prepare_for_tpi
from .quantize import ProbabilityGrid
from .random_placement import solve_random
from .regions import (
    RegionSubproblem,
    extract_region_subproblem,
    fault_region_owner,
    owner_of_fault,
)
from .test_points import InsertionResult, apply_test_points
from .virtual import VirtualEvaluation, evaluate_placement, split_placement

__all__ = [
    "TestPointType",
    "TestPoint",
    "TestPointCosts",
    "TPIProblem",
    "TPISolution",
    "CONTROL_TYPES",
    "control_probability_transform",
    "control_observability_factor",
    "ProbabilityGrid",
    "prepare_for_tpi",
    "PhasePlan",
    "evaluate_phase",
    "phase_escape_probabilities",
    "schedule_phases",
    "measure_phase_coverage",
    "DPSolver",
    "solve_tree",
    "quantized_tree_check",
    "quantized_tree_checker",
    "solve_dp_heuristic",
    "solve_greedy",
    "solve_random",
    "solve_exhaustive",
    "solve_with_fallback",
    "SOLVER_CASCADE",
    "DEFAULT_CASCADE",
    "VirtualEvaluation",
    "evaluate_placement",
    "split_placement",
    "IncrementalEvaluator",
    "InsertionResult",
    "apply_test_points",
    "CoverageReport",
    "measure_coverage",
    "evaluate_solution",
    "RegionSubproblem",
    "extract_region_subproblem",
    "fault_region_owner",
    "owner_of_fault",
    "cnf_to_circuit",
    "output_excitation_fault",
    "brute_force_sat",
    "is_satisfiable_via_testability",
    "random_cnf",
]
