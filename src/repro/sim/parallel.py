"""Process-parallel fault simulation over partitioned fault lists.

The fault simulator's work is embarrassingly parallel across faults: each
fault's propagation depends only on the shared good-circuit words, never on
another fault's result.  :func:`run_parallel` exploits that by splitting
the collapsed fault list into contiguous chunks, fan-ing the chunks out to
a :class:`~concurrent.futures.ProcessPoolExecutor`, and merging the
per-fault results back **in input order** — the merged
:class:`~repro.sim.fault_sim.FaultSimResult` is bit-identical to a serial
run (the equivalence tests assert this down to the first-detect indices),
so callers never observe the parallelism.

Design notes:

* workers are primed once (per pool) with the circuit, the stimulus, and —
  in exact mode — the parent's good-circuit words, so each worker replays
  the same fault-free state instead of re-deriving it per chunk; under the
  numpy kernel the words ship as the parent's packed ``(n_rows, n_words)``
  matrices and each contiguous fault chunk becomes a B-axis shard of the
  batched fault cube, propagated straight off the shared arrays;
* cooperative budgets are honored *inside* workers: each chunk gets a
  fresh-clock budget whose ``max_patterns`` share is proportional to its
  chunk size.  :class:`~repro.errors.BudgetExceededError` does not survive
  pickling (it has a custom constructor), so workers return a sentinel
  payload the parent re-raises as the real exception, first chunk first —
  deterministic regardless of which worker finished when;
* the fan-out is hardened against misbehaving workers: every chunk is
  submitted individually, validated on return, retried with capped
  exponential backoff on crash/corruption/timeout, re-dispatched after
  one pool respawn on :class:`BrokenProcessPool`, and finally computed
  serially in the parent (``parallel.degraded``) — the merged result is
  the same bits no matter which of those paths each chunk took;
* anything that prevents the pool from working (unpicklable circuit, a
  sandbox that forbids ``fork``, a broken pool) degrades to the serial
  path with the caller's original budget, never to an error;
* workers are not black boxes: every chunk captures the counter deltas
  its simulators emitted (through a chunk-local recorder) and ships them
  back beside the results, tagged with the worker pid and the parent's
  run id; the parent merges exactly one telemetry record per chunk into
  its registry under the ``worker.`` namespace and into its trace as
  ``parallel.chunk_telemetry`` / ``parallel.worker_summary`` events —
  retries, degradation, and kernel rebuilds inside workers are visible
  with per-worker attribution and no double counting;
* all of that machinery is testable deterministically by passing a
  seeded :class:`~repro.resilience.chaos.ChaosSpec` (``chaos=``), which
  makes workers crash / stall / corrupt their payloads on purpose.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .. import obs
from ..errors import BudgetExceededError, SimulationError
from ..resilience import Budget
from ..resilience.chaos import ChaosSpec
from ..resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from . import npsim
from .backend import get_backend
from .compile import resolve_kernel
from .fault_sim import FaultSimResult, FaultSimulator
from .faults import Fault

__all__ = ["run_parallel", "split_chunks"]

#: Below this many faults per requested job the pool overhead cannot pay
#: for itself; the call silently runs serially.
MIN_FAULTS_PER_JOB = 4

#: Attempts per chunk (first try + retries) before the parent computes
#: the chunk itself.
DEFAULT_MAX_ATTEMPTS = DEFAULT_RETRY_POLICY.max_attempts

# ---------------------------------------------------------------------------
# Worker side.  State is primed once per worker process via the pool
# initializer; chunks then only carry the fault lists.
# ---------------------------------------------------------------------------

_WORKER_STATE: Optional[Dict[str, object]] = None


def _init_worker(
    circuit,
    stimulus: Mapping[str, int],
    n_patterns: int,
    mode: str,
    block: int,
    good_values: Optional[Mapping[str, int]],
    good_blocks: Optional[List[Tuple[int, Mapping[str, int]]]],
    kernel: str = "interp",
    kernel_sources: Optional[Dict[str, str]] = None,
    kernel_cone_meta: Optional[Dict[str, int]] = None,
    chaos: Optional[ChaosSpec] = None,
    run_id: Optional[str] = None,
    good_matrix=None,
    good_block_matrices: Optional[List[Tuple[int, object]]] = None,
) -> None:
    """Prime one worker process with the shared simulation state.

    ``kernel_sources`` carries the parent's already-generated kernel
    *source strings* (compiled code objects don't pickle); the worker
    seeds its registry with them and re-``exec``s each kernel lazily on
    first use, so chunk work never re-derives codegen the parent already
    paid for.  ``run_id`` is the parent recorder's run identifier — it
    rides back in every chunk's telemetry so worker-side activity can be
    attributed to the parent trace.

    ``good_matrix`` / ``good_block_matrices`` are the numpy kernel's
    cube-shard priming: the parent's packed good matrix (its
    ``(n_rows, n_words)`` uint64 array — plans themselves hold locks and
    don't pickle) or its per-dropping-block equivalents.  The worker
    wraps them in :class:`~repro.sim.npsim.PackedState` against its
    locally-rebuilt plan, so every fault chunk — one B-axis shard of the
    batched fault cube — propagates straight off the shared arrays with
    no per-worker int-word repacking.
    """
    global _WORKER_STATE
    # The parent's recorder (file handles, span stacks) must not be
    # inherited into forked workers — concurrent writes would interleave.
    obs.set_recorder(None)
    # Backend-specific priming: the compiled backend seeds its registry
    # from the shipped sources, the numpy backend rebuilds its plan
    # locally, interp needs nothing.
    get_backend(kernel).prime_worker(circuit, kernel_sources, kernel_cone_meta)
    if good_matrix is not None:
        plan = npsim.get_plan(circuit)
        good_values = npsim.PackedState(plan, good_matrix, n_patterns)
    if good_block_matrices is not None:
        plan = npsim.get_plan(circuit)
        good_blocks = [
            (blk_n, npsim.PackedState(plan, matrix, blk_n))
            for blk_n, matrix in good_block_matrices
        ]
    _WORKER_STATE = {
        "sim": FaultSimulator(circuit, kernel=kernel),
        "stimulus": stimulus,
        "n_patterns": n_patterns,
        "mode": mode,
        "block": block,
        "good_values": good_values,
        "good_blocks": good_blocks,
        "chaos": chaos,
        "run_id": run_id,
    }


def _simulate_chunk(
    task: Tuple[
        Sequence[Fault], Optional[Dict[str, Optional[float]]], int, int
    ],
):
    """Simulate one fault chunk; returns a picklable result payload.

    ``task`` is ``(chunk, budget_spec, chunk_index, attempt)`` — the
    index/attempt pair feeds the (optional) chaos hook and makes retried
    submissions distinguishable in worker-side decisions.

    Success payload: ``("ok", words, first_detects, gate_evals, telem)``
    with the lists aligned to the chunk's fault order and ``telem`` the
    chunk's telemetry summary (pid, run id, attempt, seconds, and the
    counter deltas the simulators emitted while computing this chunk —
    captured through a chunk-local recorder, so the numbers are exact
    deltas no matter how many chunks a worker has already served).
    Budget exhaustion payload: ``("budget", resource, limit, spent,
    where)`` — the parent re-raises, because
    :class:`BudgetExceededError` itself cannot round-trip pickle.
    """
    chunk, budget_spec, chunk_index, attempt = task
    state = _WORKER_STATE
    assert state is not None, "worker used before initialization"
    sim: FaultSimulator = state["sim"]  # type: ignore[assignment]
    chaos: Optional[ChaosSpec] = state.get("chaos")  # type: ignore[assignment]
    action = chaos.action(chunk_index, attempt) if chaos is not None else None
    if action == "crash":
        os._exit(13)  # a hard worker death, not an exception
    if action == "spurious":
        raise RuntimeError(
            f"chaos: spurious exception in chunk {chunk_index} "
            f"attempt {attempt}"
        )
    if action == "stall":
        time.sleep(chaos.stall_seconds)
    budget = None
    if budget_spec is not None:
        budget = Budget(
            wall_ms=budget_spec.get("wall_ms"),
            max_patterns=budget_spec.get("max_patterns"),
        )
    evals_before = sim.gate_evals
    capture = obs.RunRecorder(None)
    previous = obs.set_recorder(capture)
    start = perf_counter()
    try:
        try:
            if state["mode"] == "coverage":
                result = sim.run_coverage(
                    state["stimulus"],  # type: ignore[arg-type]
                    state["n_patterns"],  # type: ignore[arg-type]
                    faults=chunk,
                    budget=budget,
                    block=state["block"],  # type: ignore[arg-type]
                    good_blocks=state["good_blocks"],  # type: ignore[arg-type]
                )
            else:
                result = sim.run(
                    state["stimulus"],  # type: ignore[arg-type]
                    state["n_patterns"],  # type: ignore[arg-type]
                    faults=chunk,
                    budget=budget,
                    good_values=state["good_values"],  # type: ignore[arg-type]
                )
        except BudgetExceededError as exc:
            return ("budget", exc.resource, exc.limit, exc.spent, exc.where)
    finally:
        obs.set_recorder(previous)
    telem = {
        "pid": os.getpid(),
        "run_id": state.get("run_id"),
        "attempt": attempt,
        "in_parent": False,
        "seconds": round(perf_counter() - start, 6),
        "counters": capture.metrics.snapshot()["counters"],
    }
    words = [result.detection_word[f] for f in chunk]
    firsts = [result.first_detect[f] for f in chunk]
    if action == "corrupt":
        # A torn payload: one fault's result silently missing.  The
        # parent's shape validation must reject this and retry.
        words = words[:-1]
    return ("ok", words, firsts, sim.gate_evals - evals_before, telem)


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


def split_chunks(items: Sequence, n: int) -> List[List]:
    """Split ``items`` into ``n`` contiguous, near-equal chunks.

    Contiguity is what makes the parallel merge deterministic: chunk
    boundaries depend only on ``(len(items), n)``, never on scheduling.
    Empty chunks are omitted.
    """
    if n <= 0:
        raise ValueError("chunk count must be positive")
    out: List[List] = []
    base, extra = divmod(len(items), n)
    start = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        if size:
            out.append(list(items[start : start + size]))
        start += size
    return out


def _chunk_budget_specs(
    budget: Optional[Budget], chunks: Sequence[Sequence[Fault]]
) -> List[Optional[Dict[str, Optional[float]]]]:
    """Per-chunk budget specs: fresh clocks, proportional pattern shares."""
    if budget is None:
        return [None] * len(chunks)
    total = sum(len(c) for c in chunks)
    max_patterns = budget.limits["patterns"]
    specs: List[Optional[Dict[str, Optional[float]]]] = []
    for chunk in chunks:
        share: Optional[int] = None
        if max_patterns is not None:
            share = (max_patterns * len(chunk)) // max(total, 1)
        specs.append({"wall_ms": budget.wall_ms, "max_patterns": share})
    return specs


def _fan_out(
    chunks: Sequence[Sequence[Fault]],
    specs: Sequence[Optional[Dict[str, Optional[float]]]],
    max_workers: int,
    initargs: tuple,
    chunk_timeout: Optional[float],
    retry_policy: RetryPolicy,
    serial_chunk,
) -> List[tuple]:
    """Submit every chunk, survive misbehaving workers, return payloads.

    One future per chunk (not ``pool.map``): each chunk is individually
    validated, retried with capped exponential backoff, re-dispatched
    after a single pool respawn on :class:`BrokenProcessPool`, deadline-
    enforced when ``chunk_timeout`` is set, and finally handed to
    ``serial_chunk`` (in-parent computation) when its attempts run out.
    The returned list is indexed by chunk — merge order, and therefore
    the result, is independent of scheduling, retries, and degradation.
    """
    n = len(chunks)
    payloads: List[Optional[tuple]] = [None] * n
    attempts = [0] * n
    respawned = False

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_init_worker,
            initargs=initargs,
        )

    pool = make_pool()
    pending: Dict[object, Tuple[int, int]] = {}  # future -> (chunk, attempt)
    deadlines: Dict[object, float] = {}
    current: Dict[int, object] = {}  # chunk -> its latest future

    def submit(idx: int) -> None:
        fut = pool.submit(
            _simulate_chunk, (chunks[idx], specs[idx], idx, attempts[idx])
        )
        pending[fut] = (idx, attempts[idx])
        if chunk_timeout is not None:
            deadlines[fut] = time.monotonic() + chunk_timeout
        current[idx] = fut

    def degrade(idx: int) -> None:
        obs.count("parallel.degraded")
        obs.event(
            "parallel.chunk_degraded", chunk=idx, attempts=attempts[idx]
        )
        payloads[idx] = serial_chunk(idx)
        current.pop(idx, None)

    def retry(idx: int, reason: str) -> None:
        attempts[idx] += 1
        if not retry_policy.should_retry(attempts[idx]):
            degrade(idx)
            return
        obs.count("parallel.retries")
        obs.event(
            "parallel.chunk_retry",
            chunk=idx,
            attempt=attempts[idx],
            reason=reason,
        )
        retry_policy.sleep(attempts[idx], key=str(idx))
        submit(idx)

    def handle_broken() -> None:
        nonlocal pool, respawned
        pending.clear()
        deadlines.clear()
        current.clear()
        try:
            pool.shutdown(wait=False)
        except Exception:
            pass
        unresolved = [i for i in range(n) if payloads[i] is None]
        if respawned:
            # Second break: stop trusting pools, finish in the parent.
            obs.event(
                "parallel.pool_broken_again", unresolved=len(unresolved)
            )
            for idx in unresolved:
                degrade(idx)
            return
        respawned = True
        obs.event("parallel.pool_respawn", unresolved=len(unresolved))
        pool = make_pool()
        # retry() (not submit()) so the lost attempt is counted — a
        # deterministic first-attempt chaos crash must not be able to
        # break the respawned pool a second time.
        for idx in unresolved:
            retry(idx, "pool_broken")

    try:
        try:
            for idx in range(n):
                submit(idx)
        except BrokenProcessPool:
            handle_broken()
        while any(p is None for p in payloads):
            if not pending:
                for idx in range(n):
                    if payloads[idx] is None:
                        degrade(idx)
                break
            try:
                timeout = None
                if deadlines:
                    timeout = max(
                        0.0, min(deadlines.values()) - time.monotonic()
                    )
                done, _not_done = wait(
                    list(pending), timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )
                for fut in done:
                    idx, _attempt = pending.pop(fut)
                    deadlines.pop(fut, None)
                    is_current = current.get(idx) is fut
                    if is_current:
                        current.pop(idx, None)
                    exc = fut.exception()
                    if exc is not None:
                        if isinstance(exc, BrokenProcessPool):
                            raise exc
                        if payloads[idx] is None and is_current:
                            retry(idx, type(exc).__name__)
                        continue
                    payload = fut.result()
                    if payloads[idx] is not None:
                        continue  # a retry already resolved this chunk
                    if _valid_payload(payload, chunks[idx]):
                        # A late (stale) but valid result is as good as a
                        # fresh one — accept it.
                        payloads[idx] = payload
                    elif is_current:
                        retry(idx, "corrupt_payload")
                # Deadline scan: the hung attempt stays in ``pending`` (it
                # cannot be cancelled once running) but loses its claim —
                # its late result is only used if the retry hasn't landed.
                if deadlines:
                    now = time.monotonic()
                    for fut in [
                        f for f, d in deadlines.items() if d <= now
                    ]:
                        deadlines.pop(fut, None)
                        idx, attempt = pending[fut]
                        if payloads[idx] is not None:
                            continue
                        if current.get(idx) is not fut:
                            continue
                        obs.event(
                            "parallel.chunk_timeout",
                            chunk=idx,
                            attempt=attempt,
                        )
                        retry(idx, "timeout")
            except BrokenProcessPool:
                handle_broken()
        # Belt and braces: the merge zips payloads against chunks, so a
        # hole here would silently misalign results.  Fill any remaining
        # gap serially instead.
        for idx in range(n):
            if payloads[idx] is None:
                degrade(idx)
        return payloads  # type: ignore[return-value]
    finally:
        # Never block the caller on hung chaos workers; queued stale
        # tasks are dropped, running ones finish into the void.
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


def _valid_payload(payload, chunk: Sequence[Fault]) -> bool:
    """Shape-validate a worker payload before trusting it.

    A corrupted payload (chaos, a worker dying mid-pickle, a codec bug)
    must never silently drop faults from the merged result.
    """
    if not isinstance(payload, tuple) or not payload:
        return False
    if payload[0] == "budget":
        return len(payload) == 5
    if payload[0] == "ok":
        return (
            len(payload) == 5
            and isinstance(payload[1], list)
            and isinstance(payload[2], list)
            and len(payload[1]) == len(chunk)
            and len(payload[2]) == len(chunk)
            and (payload[4] is None or isinstance(payload[4], dict))
        )
    return False


def _merge_telemetry(
    telemetries: Sequence[Tuple[int, Dict[str, object]]],
    run_id: Optional[str],
) -> None:
    """Fold accepted chunks' telemetry into the parent registry + trace.

    Exactly-once by construction: the fan-out resolves one payload per
    chunk (retried attempts' payloads are discarded before this point),
    and every worker-side counter is namespaced under ``worker.`` so the
    merge can never collide with the parent's own counts of the same
    events.  Each chunk also leaves a ``parallel.chunk_telemetry`` trace
    event attributing the work to the process that did it, and each
    reporting process a ``parallel.worker_summary`` rollup.
    """
    if not telemetries or not obs.enabled():
        return
    totals: Dict[str, float] = {}
    by_pid: Dict[int, Dict[str, object]] = {}
    for idx, telem in telemetries:
        counters = telem.get("counters") or {}
        obs.event(
            "parallel.chunk_telemetry",
            chunk=idx,
            pid=telem.get("pid"),
            run_id=telem.get("run_id") or run_id,
            attempt=telem.get("attempt"),
            in_parent=bool(telem.get("in_parent")),
            seconds=telem.get("seconds"),
            counters=counters,
        )
        pid = telem.get("pid")
        if isinstance(pid, int):
            summary = by_pid.setdefault(
                pid,
                {
                    "chunks": 0,
                    "seconds": 0.0,
                    "in_parent": bool(telem.get("in_parent")),
                    "counters": {},
                },
            )
            summary["chunks"] += 1  # type: ignore[operator]
            summary["seconds"] += float(telem.get("seconds") or 0.0)  # type: ignore[operator]
            per_pid: Dict[str, float] = summary["counters"]  # type: ignore[assignment]
            for name, value in counters.items():
                if isinstance(value, (int, float)):
                    per_pid[name] = per_pid.get(name, 0.0) + value
        for name, value in counters.items():
            if isinstance(value, (int, float)):
                totals[name] = totals.get(name, 0.0) + value
    for name, value in sorted(totals.items()):
        obs.count(f"worker.{name}", value)
    for pid, summary in sorted(by_pid.items()):
        obs.event(
            "parallel.worker_summary",
            pid=pid,
            run_id=run_id,
            chunks=summary["chunks"],
            seconds=round(float(summary["seconds"]), 6),  # type: ignore[arg-type]
            in_parent=summary["in_parent"],
            counters=summary["counters"],
        )
    obs.count("parallel.chunks_merged", len(telemetries))
    obs.gauge(
        "parallel.workers_reporting",
        sum(1 for s in by_pid.values() if not s["in_parent"]),
    )


def run_parallel(
    circuit,
    stimulus: Mapping[str, int],
    n_patterns: int,
    faults: Optional[Sequence[Fault]] = None,
    collapse: bool = True,
    jobs: int = 1,
    mode: str = "exact",
    block: int = 64,
    budget: Optional[Budget] = None,
    kernel: Optional[str] = None,
    chaos: Optional[ChaosSpec] = None,
    chunk_timeout: Optional[float] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    retry_policy: Optional[RetryPolicy] = None,
) -> FaultSimResult:
    """Fault-simulate with the fault list fanned out over ``jobs`` processes.

    Parameters
    ----------
    circuit, stimulus, n_patterns, faults, collapse:
        As for :meth:`~repro.sim.fault_sim.FaultSimulator.run`.
    jobs:
        Worker process count.  ``jobs <= 1`` (or a fault list too small to
        amortize the pool) runs serially in-process; the result is
        identical either way.
    mode:
        ``"exact"`` (full detection words, :meth:`run`) or ``"coverage"``
        (fault dropping, :meth:`run_coverage`).
    block:
        Initial dropping-block size for ``mode="coverage"``.
    budget:
        Optional cooperative budget.  In the parallel path each chunk is
        enforced inside its worker with a fresh clock and a proportional
        ``max_patterns`` share; exhaustion in any chunk raises
        :class:`BudgetExceededError` in the parent (first chunk in fault
        order wins, for determinism).
    kernel:
        ``"compiled"``, ``"numpy"`` or ``"interp"``; forwarded to every
        worker's simulator.  Compiled workers receive the parent's
        generated kernel sources and rebuild the code objects on first
        use; numpy workers receive the parent's packed good matrices
        (cube-shard priming — each fault chunk is a B-axis shard of the
        batched fault cube over the shared arrays).
    chaos:
        Optional deterministic fault-injection plan
        (:class:`~repro.resilience.chaos.ChaosSpec`) — test-only; makes
        workers crash / stall / corrupt payloads on purpose to exercise
        the hardening below (supervisor-only actions never fire here).
    chunk_timeout:
        Per-chunk deadline in seconds.  A chunk still unfinished past its
        deadline is re-dispatched (the hung attempt's late result is used
        only if the retry has not landed first).  ``None`` disables
        deadline enforcement.
    max_attempts:
        Worker attempts per chunk (first try + retries, with capped
        exponential backoff) before the parent computes the chunk
        serially itself (``parallel.degraded``).
    retry_policy:
        Full backoff schedule (:class:`~repro.resilience.retry.
        RetryPolicy`).  Defaults to the shared
        :data:`~repro.resilience.retry.DEFAULT_RETRY_POLICY` with
        ``max_attempts`` applied; passing both keeps the policy's
        schedule but ``retry_policy.max_attempts`` wins.

    Failure handling never changes the result, only the wall clock:
    crashed/hung/corrupt chunks are retried (``parallel.retries``), one
    :class:`BrokenProcessPool` respawns the pool and re-dispatches every
    unresolved chunk (``parallel.pool_respawn``), and a chunk that
    exhausts its attempts — or a second pool break — degrades to an
    in-parent serial computation (``parallel.degraded``).
    """
    if mode not in ("exact", "coverage"):
        raise SimulationError(f"unknown parallel fault-sim mode {mode!r}")
    if retry_policy is None:
        retry_policy = DEFAULT_RETRY_POLICY.replaced(
            max_attempts=max_attempts
        )
    kernel = resolve_kernel(kernel)
    sim = FaultSimulator(circuit, kernel=kernel)
    faults = sim._resolve_faults(faults, collapse)

    def serial() -> FaultSimResult:
        if mode == "coverage":
            return sim.run_coverage(
                stimulus, n_patterns, faults=faults, budget=budget, block=block
            )
        return sim.run(stimulus, n_patterns, faults=faults, budget=budget)

    if jobs <= 1 or len(faults) < MIN_FAULTS_PER_JOB * jobs:
        return serial()

    chunks = split_chunks(faults, jobs)
    specs = _chunk_budget_specs(budget, chunks)
    # The good machine is simulated once, in the parent; workers replay
    # the shared words (free under fork, one pickle under spawn).  The
    # numpy kernel ships its packed matrices instead of int-word dicts:
    # each worker wraps the raw arrays against its own plan (see
    # ``_init_worker``) and its fault chunks run as B-axis shards of the
    # batched fault cube, skipping the per-worker repacking the dict
    # round-trip used to cost.
    good_values = None
    good_blocks = None
    good_matrix = None
    good_block_matrices = None
    ship_good_values = None
    ship_good_blocks = None
    if mode == "exact":
        good = sim._logic.run(stimulus, n_patterns)
        if kernel == "numpy" and isinstance(good, npsim.PackedState):
            good_values = good
            good_matrix = good.values
        else:
            good_values = ship_good_values = dict(good)
    else:
        blocks = list(sim.coverage_blocks(stimulus, n_patterns, block))
        if kernel == "numpy" and all(
            isinstance(gv, npsim.PackedState) for _n, gv in blocks
        ):
            good_blocks = blocks
            good_block_matrices = [
                (blk_n, gv.values) for blk_n, gv in blocks
            ]
        else:
            good_blocks = ship_good_blocks = [
                (blk_n, dict(gv)) for blk_n, gv in blocks
            ]
    kernel_sources, kernel_cone_meta = get_backend(kernel).worker_payload(
        circuit
    )
    parent_recorder = obs.get_recorder()
    run_id = parent_recorder.run_id if parent_recorder is not None else None
    with obs.span(
        "fault_sim.parallel",
        circuit=circuit.name,
        n_patterns=n_patterns,
        n_faults=len(faults),
        jobs=jobs,
        mode=mode,
    ) as sp:
        start = perf_counter()

        def serial_chunk(idx: int):
            """Compute one chunk in the parent (last-resort degradation).

            Counter deltas are captured through a chunk-local recorder —
            exactly as a worker would — so a degraded chunk's telemetry
            is merged once, through the same path, instead of leaking
            unattributed into the parent registry.  Spans the simulators
            open during this window go to the capture recorder (and are
            dropped); the chunk's telemetry event is the record of it.
            """
            spec = specs[idx]
            chunk_budget = None
            if spec is not None:
                chunk_budget = Budget(
                    wall_ms=spec.get("wall_ms"),
                    max_patterns=spec.get("max_patterns"),
                )
            evals_before = sim.gate_evals
            capture = obs.RunRecorder(None)
            previous = obs.set_recorder(capture)
            chunk_start = perf_counter()
            try:
                try:
                    if mode == "coverage":
                        res = sim.run_coverage(
                            stimulus,
                            n_patterns,
                            faults=chunks[idx],
                            budget=chunk_budget,
                            block=block,
                            good_blocks=good_blocks,
                        )
                    else:
                        res = sim.run(
                            stimulus,
                            n_patterns,
                            faults=chunks[idx],
                            budget=chunk_budget,
                            good_values=good_values,
                        )
                except BudgetExceededError as exc:
                    return (
                        "budget", exc.resource, exc.limit, exc.spent, exc.where
                    )
            finally:
                obs.set_recorder(previous)
            telem = {
                "pid": os.getpid(),
                "run_id": run_id,
                "attempt": None,
                "in_parent": True,
                "seconds": round(perf_counter() - chunk_start, 6),
                "counters": capture.metrics.snapshot()["counters"],
            }
            return (
                "ok",
                [res.detection_word[f] for f in chunks[idx]],
                [res.first_detect[f] for f in chunks[idx]],
                sim.gate_evals - evals_before,
                telem,
            )

        try:
            # ``jobs`` fixes the chunking (and therefore the merge order and
            # budget shares); the worker count is additionally capped at the
            # machine's usable cores — oversubscribing only adds fork and
            # scheduling overhead, never throughput.
            try:
                usable = len(os.sched_getaffinity(0))
            except AttributeError:  # platforms without affinity support
                usable = os.cpu_count() or 1
            payloads = _fan_out(
                chunks=chunks,
                specs=specs,
                max_workers=min(len(chunks), max(usable, 1)),
                initargs=(
                    circuit,
                    stimulus,
                    n_patterns,
                    mode,
                    block,
                    ship_good_values,
                    ship_good_blocks,
                    kernel,
                    kernel_sources,
                    kernel_cone_meta,
                    chaos,
                    run_id,
                    good_matrix,
                    good_block_matrices,
                ),
                chunk_timeout=chunk_timeout,
                retry_policy=retry_policy,
                serial_chunk=serial_chunk,
            )
        except BudgetExceededError:
            raise
        except Exception as exc:  # pool unusable: degrade, don't fail
            obs.event(
                "fault_sim.parallel_fallback",
                error=type(exc).__name__,
                detail=str(exc)[:200],
            )
            return serial()

        result = FaultSimResult(
            n_patterns=n_patterns, coverage_only=(mode == "coverage")
        )
        detected = 0
        worker_evals = 0
        telemetries: List[Tuple[int, Dict[str, object]]] = []
        for idx, (chunk, payload) in enumerate(zip(chunks, payloads)):
            if payload[0] == "budget":
                _tag, resource, limit, spent, where = payload
                raise BudgetExceededError(
                    resource, limit, spent, where=where or "fault_sim.parallel"
                )
            _tag, words, firsts, evals, telem = payload
            worker_evals += evals
            if telem:
                telemetries.append((idx, telem))
            for fault, word, first in zip(chunk, words, firsts):
                result.detection_word[fault] = word
                result.first_detect[fault] = first
                if word:
                    detected += 1
        result._n_detected = detected
        _merge_telemetry(telemetries, run_id)
        seconds = perf_counter() - start
        sp.set(detected=detected, gate_evals=worker_evals, seconds=seconds)
    obs.count("fault_sim.runs")
    obs.count("fault_sim.parallel_runs")
    obs.count("fault_sim.patterns", n_patterns)
    obs.count("fault_sim.faults", len(faults))
    obs.count("fault_sim.dropped", detected)
    obs.count("fault_sim.undetected", len(faults) - detected)
    obs.count("fault_sim.gate_evals", worker_evals)
    if seconds > 0.0:
        obs.gauge("fault_sim.gate_evals_per_sec", worker_evals / seconds)
    obs.observe("fault_sim.run_seconds", seconds)
    return result
