"""Deterministic fault injection for supervised pools (chaos hooks).

The hardened :func:`repro.sim.parallel.run_parallel` and the sweep
fabric (:mod:`repro.fabric`) both promise that worker crashes, stalls,
corrupted payloads and spurious worker exceptions never change the
*result* — only the wall clock.  The fabric also promises the same for
supervisor-side failures (journal writes hitting ENOSPC, duplicate
completions racing the commit point, result-store corruption).  Those
promises are worth nothing untested, and real crashes are not
reproducible; a :class:`ChaosSpec` makes them so.  It is carried into
every worker and consulted once per ``(index, attempt)``, where the
index is a fault-sim chunk or a fabric job.

Injection is **seeded and deterministic**: the decision for an item is a
pure function of ``(seed, index, attempt)``, so a failing run replays
exactly and the supervisor and its workers agree without communicating.
``forced`` pins specific items to specific actions for targeted tests.
By default (``first_attempt_only=True``) chaos applies only to an item's
first attempt, so every hardened run must converge to the serial result
— which is exactly the property the chaos tests assert.

Each consumer inflicts the actions it has a surface for and ignores the
rest by name: ``run_parallel`` workers and fabric workers inflict
``crash``/``stall``/``corrupt``/``spurious``; the fabric supervisor
inflicts ``enospc``/``duplicate`` and, with a result store attached,
the ``store_*`` faults.

Nothing here ever fires in production: ``run_parallel(chaos=None)`` /
``FabricSupervisor(chaos=None)`` (the defaults) skip every hook.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["CHAOS_ACTIONS", "ChaosSpec"]

#: Everything a chaos hook can do to an item attempt.  The first four
#: are inflicted inside the worker process; the rest strike the fabric
#: *supervisor* side (``run_parallel`` has no such surface).
CHAOS_ACTIONS = (
    "crash",      # worker process dies hard mid-item (os._exit)
    "stall",      # worker stops heartbeating and sleeps stall_seconds
    "corrupt",    # worker returns a malformed result payload
    "spurious",   # worker raises an unexpected exception
    "enospc",     # the journal append for this job's commit fails once
    "duplicate",  # a second completion for the job races the commit
    # Result-store faults (strike the published store entry after the
    # journal commit):
    "store_torn",     # the entry file is truncated mid-record
    "store_bitflip",  # one bit of the entry payload is flipped
    "store_stale",    # the entry is rewritten under an old schema tag
    "store_double",   # a concurrent second publish races the first
)


@dataclass(frozen=True)
class ChaosSpec:
    """Seeded fault-injection plan for one pool run or fabric campaign.

    Each action field is a per-item probability (bands of one uniform
    draw per ``(index, attempt)``, so they must sum to at most 1).
    ``forced`` overrides the draw for specific indices:
    ``((0, "crash"), (1, "stall"))`` crashes item 0's worker and stalls
    item 1's.

    * ``crash`` — the worker dies hard, breaking the pool (exercises
      pool respawn, re-dispatch, lease bookkeeping, the breaker);
    * ``stall`` — the worker sleeps ``stall_seconds`` before computing;
      a fabric worker also suppresses its heartbeat (exercises the
      per-chunk deadline, heartbeat-based lease expiry, and the
      exactly-once gate rejecting the late result);
    * ``corrupt`` — the worker returns a malformed payload (exercises
      shape validation + retry);
    * ``spurious`` — the worker raises (plain retry path);
    * ``enospc`` — the journal append committing this job fails once
      with ``ENOSPC`` (the job must still commit exactly once);
    * ``duplicate`` — a duplicate completion for the job is offered to
      the journal after the real commit (must be rejected, not
      double-counted);
    * ``store_torn`` — the published result-store entry is truncated
      mid-record (the next read must quarantine it and recompute, never
      serve a partial record);
    * ``store_bitflip`` — one bit of the published entry is flipped
      (the payload sha256 must catch it);
    * ``store_stale`` — the published entry is rewritten under an
      outdated schema tag (it must be quarantined, not parsed on faith);
    * ``store_double`` — a second publish for the job races the first
      (must be a no-op: first write wins, entry content unchanged).

    The ``store_*`` faults only fire when a campaign runs with a result
    store attached; without one the supervisor has nothing to corrupt.
    """

    seed: int = 0
    crash: float = 0.0
    stall: float = 0.0
    corrupt: float = 0.0
    spurious: float = 0.0
    enospc: float = 0.0
    duplicate: float = 0.0
    store_torn: float = 0.0
    store_bitflip: float = 0.0
    store_stale: float = 0.0
    store_double: float = 0.0
    #: How long a "stall" sleeps (keep well above the caller's
    #: ``chunk_timeout`` / ``lease_timeout_s`` so the deadline fires).
    stall_seconds: float = 30.0
    #: With True (default) chaos only strikes an item's first attempt, so
    #: retries converge; False re-rolls per attempt (torture mode).
    first_attempt_only: bool = True
    forced: Tuple[Tuple[int, str], ...] = field(default=())

    def __post_init__(self) -> None:
        total = sum(getattr(self, act) for act in CHAOS_ACTIONS)
        if total > 1.0 + 1e-12:
            raise ValueError(f"chaos probabilities sum to {total:g} > 1")
        for _idx, act in self.forced:
            if act not in CHAOS_ACTIONS:
                raise ValueError(
                    f"unknown chaos action {act!r} "
                    f"(choose from {CHAOS_ACTIONS})"
                )

    def action(self, index: int, attempt: int) -> Optional[str]:
        """The action (if any) to inflict on this item attempt.

        Pure and deterministic: same spec + same ``(index, attempt)``
        always returns the same answer, in the parent and in any worker,
        on any host.
        """
        if attempt > 0 and self.first_attempt_only:
            return None
        for idx, act in self.forced:
            if idx == index:
                return act
        if not any(getattr(self, act) for act in CHAOS_ACTIONS):
            return None
        roll = random.Random(f"chaos:{self.seed}:{index}:{attempt}").random()
        edge = 0.0
        for act in CHAOS_ACTIONS:
            edge += getattr(self, act)
            if roll < edge:
                return act
        return None
