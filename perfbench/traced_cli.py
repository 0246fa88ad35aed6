"""Run one ``repro-tpi`` command with benchmark-side layer spans.

Usage::

    python -X importtime perfbench/traced_cli.py SPANS.json -- <repro-tpi args>

The program is imported and run unchanged.  Before ``repro.cli.main``
runs, the public entry points listed in :data:`ENTRY_POINTS` are wrapped
so that every call records a span named after its layer.  Spans nest on a
per-thread stack; a span's self time is its duration minus the time of
the spans it directly encloses.  Only per-name totals are kept in
memory.  At exit they (self seconds, inclusive seconds, calls), the gates
parsed and the command's exit code are written to ``SPANS.json``.  Calls made in pool
worker processes are not recorded here; the program's own worker
telemetry covers them.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

# The checkout root is two levels up: <root>/perfbench/traced_cli.py.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.cli  # noqa: E402  (timed by -X importtime)

#: (span name, module, attribute path) of every wrapped entry point.
ENTRY_POINTS = [
    ("circuit.parse", "repro.circuit.bench_io", "parse_bench_file"),
    ("circuit.prepare", "repro.core.prepare", "prepare_for_tpi"),
    ("testability.cop", "repro.testability.cop", "cop_measures"),
    ("core.heuristic", "repro.core.heuristic", "solve_dp_heuristic"),
    ("dp.solve", "repro.core.dp", "DPSolver.solve"),
    ("verify.certify", "repro.verify.certify", "certify_solution"),
    ("greedy.solve", "repro.core.greedy", "solve_greedy"),
    ("incremental.commit", "repro.core.incremental", "IncrementalEvaluator.commit"),
    ("incremental.score", "repro.core.incremental", "IncrementalEvaluator.candidate_gain"),
    ("insert.apply", "repro.core.test_points", "apply_test_points"),
    ("core.evaluate", "repro.core.evaluate", "evaluate_solution"),
    ("sim.fault_sim", "repro.sim.fault_sim", "FaultSimulator.run"),
    ("sim.fault_sim", "repro.sim.fault_sim", "FaultSimulator.run_coverage"),
    ("sim.fault_sim", "repro.sim.parallel", "run_parallel"),
    ("sim.logic_sim", "repro.sim.logic_sim", "LogicSimulator.run"),
    ("sim.kernel_compile", "repro.sim.compile", "CompiledCircuit.function"),
    ("sim.npsim_plan", "repro.sim.npsim", "CircuitPlan.__init__"),
    ("analysis.experiment", "repro.analysis.experiments", "run_t2_dp_optimality"),
    ("analysis.sweep", "repro.analysis.experiments", "run_circuit_sweep"),
    ("fabric.journal", "repro.fabric.journal", "ResultJournal.__init__"),
    ("fabric.journal", "repro.fabric.journal", "ResultJournal.commit"),
    ("fabric.store.get", "repro.fabric.store", "ResultStore.get"),
    ("fabric.store.put", "repro.fabric.store", "ResultStore.put"),
]

class SpanRecorder:
    """In-memory span stacks (one per thread) and per-name totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.totals = {}  # name -> [self_ns, total_ns, calls]
        self.gates_parsed = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            frame = [name, time.perf_counter_ns(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                recorder._close(frame, end, stack)
            if name == "circuit.parse":
                recorder.gates_parsed += result.gate_count()
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _close(self, frame: list, end: int, stack: list) -> None:
        name, start, child_ns = frame
        dur = end - start
        if stack:
            stack[-1][2] += dur
        with self._lock:
            entry = self.totals.setdefault(name, [0, 0, 0])
            entry[0] += dur - child_ns
            entry[1] += dur
            entry[2] += 1

    def to_json(self) -> dict:
        return {
            "totals": {
                name: {"self_s": s / 1e9, "total_s": t / 1e9, "calls": c}
                for name, (s, t, c) in sorted(self.totals.items())
            },
            "gates_parsed": self.gates_parsed,
        }


def install(recorder: SpanRecorder) -> None:
    """Wrap every entry point, including names other modules imported."""
    for name, module_name, attr in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, leaf)
        wrapped = recorder.wrap(name, original)
        setattr(owner, leaf, wrapped)
        if owner_name:
            continue
        # ``from .x import f`` bound the original object elsewhere.
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and (
                getattr(other, leaf, None) is original
            ):
                setattr(other, leaf, wrapped)


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS.json -- <repro-tpi args>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    recorder = SpanRecorder()
    install(recorder)
    root = recorder.wrap("cli", repro.cli.main)
    pid = os.getpid()
    code = 4
    try:
        code = root(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        if os.getpid() == pid:
            payload = recorder.to_json()
            payload["exit_code"] = code
            Path(out_path).write_text(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
