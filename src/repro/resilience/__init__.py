"""repro.resilience — budgets, degradation, and failure isolation.

The resilience layer has three parts, threaded through the whole pipeline:

* the exception taxonomy in :mod:`repro.errors` (re-exported here), which
  turns "anything might raise anything" into a small set of catchable,
  structured failures;
* cooperative :class:`Budget` / :class:`Deadline` objects (this package),
  checked at loop boundaries inside the DP, the exhaustive search, the
  regional heuristic, greedy, PODEM, and the fault simulator;
* the solver cascade (:mod:`repro.core.cascade`) and the crash-isolated
  experiment runner (:mod:`repro.analysis.experiments`), which *consume*
  budget failures: the cascade degrades to a cheaper solver, the runner
  records the failure and moves on to the next circuit;
* deterministic chaos hooks (:class:`ChaosSpec`) that inject worker
  crashes / stalls / corrupted payloads into the parallel fault-sim
  fan-out and the sweep fabric (plus journal and result-store faults on
  the fabric's supervisor side), so the hardened retry/respawn/degrade
  machinery in :mod:`repro.sim.parallel` and :mod:`repro.fabric` is
  provable rather than hopeful.

DESIGN.md §8 describes the degradation cascade and why NP-completeness
makes budgets first-class here; §11 covers the chaos hook contract.
"""

from ..errors import (
    ArtifactWriteError,
    BudgetExceededError,
    CircuitError,
    DivergenceError,
    ExperimentError,
    ParseError,
    ReproError,
    SimulationError,
    SolverError,
    SweepInterrupted,
)
from .budget import Budget, Deadline
from .chaos import CHAOS_ACTIONS, ChaosSpec
from .interrupt import GracefulInterrupt
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = [
    "Budget",
    "CHAOS_ACTIONS",
    "ChaosSpec",
    "Deadline",
    "DEFAULT_RETRY_POLICY",
    "GracefulInterrupt",
    "RetryPolicy",
    "ArtifactWriteError",
    "BudgetExceededError",
    "DivergenceError",
    "CircuitError",
    "ExperimentError",
    "ParseError",
    "ReproError",
    "SimulationError",
    "SolverError",
    "SweepInterrupted",
]
