"""Worker-process side of the fabric: execute one leased job, loudly.

Workers are deliberately thin: all durable state (journal, queue,
retry/quarantine decisions) lives in the supervisor.  A worker's whole
contract is

1. *prove liveness* — a daemon heartbeat thread beats the supervisor's
   queue every ``heartbeat_interval_s`` while a job is executing, which
   is what keeps the job's lease alive.  A worker that dies or stalls
   stops beating; the lease expires; the supervisor re-dispatches.  The
   beat is a token (job id + pid) — the supervisor stamps arrival with
   its own clock, so nothing depends on clock sync between processes;
2. *execute and return data* — the job payload is dispatched by
   ``kind`` to a registered executor (sweep circuits, experiment
   tables) that returns a plain JSON-able dict.  Executors are expected
   to convert *domain* failures (parse errors, budget exhaustion) into
   result records themselves — an exception escaping the executor is a
   fabric-level failure and triggers the supervisor's retry/quarantine
   machinery;
3. *carry telemetry* — counter deltas emitted during the job are
   captured through a job-local recorder and shipped back beside the
   result, exactly as the parallel fan-out's chunks do, so worker-side
   activity lands attributed in the parent trace.

Chaos (:class:`~repro.resilience.chaos.ChaosSpec`) hooks in right
before execution: ``crash`` hard-kills the process mid-lease, ``stall``
suppresses the heartbeat and sleeps past lease expiry (then *returns its
result anyway*, late — exercising the exactly-once commit gate),
``corrupt`` returns a malformed payload, ``spurious`` raises.
"""

from __future__ import annotations

import os
import threading
import time
from time import perf_counter
from typing import Dict, Optional, Tuple

from .. import obs
from ..resilience.chaos import ChaosSpec

__all__ = ["execute_job", "init_fabric_worker"]

_WORKER_STATE: Optional[Dict[str, object]] = None


def init_fabric_worker(
    heartbeat_queue,
    heartbeat_interval_s: float,
    chaos: Optional[ChaosSpec],
    run_id: Optional[str],
) -> None:
    """Pool initializer: prime one worker process.

    ``heartbeat_queue`` is a manager-proxy queue (picklable); ``None``
    disables beating (the supervisor then treats the lease window as a
    hard per-attempt deadline instead of a liveness window).
    """
    global _WORKER_STATE
    # The parent's recorder (file handles, span stacks) must not be
    # inherited into forked workers — concurrent writes would interleave.
    obs.set_recorder(None)
    _WORKER_STATE = {
        "heartbeat_queue": heartbeat_queue,
        "heartbeat_interval_s": heartbeat_interval_s,
        "chaos": chaos,
        "run_id": run_id,
    }


def _dispatch(kind: str, payload: Dict[str, object]) -> dict:
    """Route a payload to its executor by job kind.

    Imports are lazy to keep worker startup cheap and to avoid circular
    imports (the executors' home modules import the fabric drivers).
    """
    if kind == "sweep_circuit":
        from ..analysis.experiments import execute_sweep_job

        return execute_sweep_job(payload)
    if kind == "experiment":
        from ..analysis.experiments import execute_experiment_job

        return execute_experiment_job(payload)
    raise ValueError(f"unknown fabric job kind {kind!r}")


class _HeartbeatThread:
    """Daemon thread beating the supervisor while a job executes."""

    def __init__(self, queue, job_id: str, interval_s: float) -> None:
        self._queue = queue
        self._job_id = job_id
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "_HeartbeatThread":
        if self._queue is None:
            return self
        self._beat()  # immediate: the lease clock starts fresh at grant
        self._thread = threading.Thread(
            target=self._run, name="fabric-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self._interval_s * 2)
        return False

    def _beat(self) -> None:
        try:
            self._queue.put_nowait((self._job_id, os.getpid()))
        except Exception:
            # A full/broken queue must never fail the job; the lease
            # window simply shrinks to its last successful beat.
            pass

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            self._beat()


def execute_job(
    task: Tuple[dict, int, int],
) -> Tuple[str, str, Optional[dict], Optional[dict]]:
    """Execute one leased job; returns a picklable payload.

    ``task`` is ``(job_dict, job_index, attempt)``.  Success payload:
    ``("ok", job_id, result, telem)``.  Executor-escaping exceptions
    become ``("error", job_id, {type, message}, telem)`` — structured,
    because arbitrary exceptions don't survive pickling and the
    supervisor needs the error history for quarantine artifacts.
    """
    job_dict, job_index, attempt = task
    state = _WORKER_STATE
    assert state is not None, "fabric worker used before initialization"
    job_id = str(job_dict["job_id"])
    chaos: Optional[ChaosSpec] = state.get("chaos")  # type: ignore[assignment]
    action = chaos.action(job_index, attempt) if chaos is not None else None
    if action == "crash":
        os._exit(17)  # a hard worker death mid-lease, not an exception
    if action == "spurious":
        raise RuntimeError(
            f"chaos: spurious worker exception for job {job_id[:12]} "
            f"attempt {attempt}"
        )
    heartbeat_queue = state.get("heartbeat_queue")
    if action == "stall":
        # A stalled worker: no heartbeats, sleep past lease expiry, then
        # compute and return a *late* result — the supervisor's
        # exactly-once gate must reject it if the retry already landed.
        heartbeat_queue = None
        time.sleep(chaos.stall_seconds)
    capture = obs.RunRecorder(None)
    previous = obs.set_recorder(capture)
    start = perf_counter()
    try:
        with _HeartbeatThread(
            heartbeat_queue,
            job_id,
            float(state["heartbeat_interval_s"]),  # type: ignore[arg-type]
        ):
            try:
                result = _dispatch(
                    str(job_dict["kind"]),
                    dict(job_dict.get("payload") or {}),
                )
            except Exception as exc:
                telem = _telemetry(state, capture, attempt, start)
                return (
                    "error",
                    job_id,
                    {"type": type(exc).__name__, "message": str(exc)[:500]},
                    telem,
                )
    finally:
        obs.set_recorder(previous)
    telem = _telemetry(state, capture, attempt, start)
    if action == "corrupt":
        # A torn payload: the result is silently replaced by garbage.
        # The supervisor's shape validation must reject and retry.
        return ("ok", job_id, None, telem)  # type: ignore[return-value]
    if not isinstance(result, dict):
        return (
            "error",
            job_id,
            {
                "type": "TypeError",
                "message": f"executor returned {type(result).__name__}, "
                f"not a result dict",
            },
            telem,
        )
    return ("ok", job_id, result, telem)


def _telemetry(
    state: Dict[str, object], capture, attempt: int, start: float
) -> dict:
    return {
        "pid": os.getpid(),
        "run_id": state.get("run_id"),
        "attempt": attempt,
        "in_parent": False,
        "seconds": round(perf_counter() - start, 6),
        "counters": capture.metrics.snapshot()["counters"],
    }
