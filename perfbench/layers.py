"""Per-layer attribution of a traced pass.

A traced command yields three sources, all read here:

* ``-X importtime`` lines on stderr (startup cost);
* the benchmark-side spans file written by ``traced_cli.py``
  (self time per layer entry point);
* the program's own ``--trace-out`` JSONL: its final ``metrics`` record
  (``dp.*``, ``kernel.*``, ``fault_sim.*``, ``npsim.*``, ``parallel.*``,
  ``fabric.*`` counters, with pool-worker counters under ``worker.*``)
  and the ``fabric.job_telemetry`` events carrying each job's seconds.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

#: Every per-layer metric, in print order, with its unit.  All are
#: printed on every workload; a layer a workload does not use reads 0.
PER_LAYER: List[Tuple[str, str]] = [
    ("startup.import_s", "s"),
    ("startup.numpy_import_s", "s"),
    ("cli.self_s", "s"),
    ("circuit.parse_s", "s"),
    ("circuit.prepare_s", "s"),
    ("circuit.gates", "count"),
    ("testability.cop_s", "s"),
    ("testability.cop_calls", "count"),
    ("core.heuristic_s", "s"),
    ("dp.solve_s", "s"),
    ("dp.solves", "count"),
    ("dp.tables", "count"),
    ("dp.table_cells", "count"),
    ("dp.decisions", "count"),
    ("dp.cells_per_s", "cells/s"),
    ("verify.certify_s", "s"),
    ("greedy.solve_s", "s"),
    ("incremental.score_s", "s"),
    ("incremental.commits", "count"),
    ("insert.apply_s", "s"),
    ("insert.points", "count"),
    ("core.evaluate_s", "s"),
    ("sim.fault_sim_s", "s"),
    ("sim.logic_sim_s", "s"),
    ("sim.kernel_compile_s", "s"),
    ("sim.kernel_compiles", "count"),
    ("sim.kernel_reuse_ratio", "ratio"),
    ("sim.gate_evals", "count"),
    ("sim.gate_evals_per_s", "evals/s"),
    ("sim.faults_dropped", "count"),
    ("sim.npsim_plan_s", "s"),
    ("sim.npsim_plans", "count"),
    ("sim.parallel_retries", "count"),
    ("sim.parallel_degraded", "count"),
    ("analysis.experiment_s", "s"),
    ("analysis.sweep_s", "s"),
    ("sweep.job_s", "s"),
    ("fabric.dispatches", "count"),
    ("fabric.commits", "count"),
    ("fabric.retries", "count"),
    ("fabric.pool_respawns", "count"),
    ("fabric.journal_s", "s"),
    ("fabric.store.get_s", "s"),
    ("fabric.store.put_s", "s"),
    ("fabric.store.hits", "count"),
    ("fabric.store.misses", "count"),
    ("fabric.store.publishes", "count"),
    ("fabric.store.verifications", "count"),
    ("fabric.store.hit_ratio_cold", "ratio"),
    ("fabric.store.hit_ratio_rerun", "ratio"),
    ("fabric.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
    ("workload.dp_gates_per_s", "gates/s"),
    ("workload.mfp_per_s", "Mfp/s"),
    ("workload.circuits_per_s", "circuits/s"),
    ("workload.cold_campaign_s", "s"),
    ("workload.rerun_campaign_s", "s"),
    ("workload.tp_cost", "cost"),
    ("workload.coverage_pct", "%"),
]

#: Benchmark span name -> per-layer self-time metric.
SELF_TIME = {
    "cli": "cli.self_s",
    "circuit.parse": "circuit.parse_s",
    "circuit.prepare": "circuit.prepare_s",
    "testability.cop": "testability.cop_s",
    "core.heuristic": "core.heuristic_s",
    "dp.solve": "dp.solve_s",
    "verify.certify": "verify.certify_s",
    "greedy.solve": "greedy.solve_s",
    "incremental.score": "incremental.score_s",
    "incremental.commit": "incremental.score_s",
    "insert.apply": "insert.apply_s",
    "core.evaluate": "core.evaluate_s",
    "sim.fault_sim": "sim.fault_sim_s",
    "sim.logic_sim": "sim.logic_sim_s",
    "sim.kernel_compile": "sim.kernel_compile_s",
    "sim.npsim_plan": "sim.npsim_plan_s",
    "analysis.experiment": "analysis.experiment_s",
    "analysis.sweep": "analysis.sweep_s",
    "fabric.journal": "fabric.journal_s",
    "fabric.store.get": "fabric.store.get_s",
    "fabric.store.put": "fabric.store.put_s",
}

#: Program counter (parent + ``worker.`` copy summed) -> metric.
COUNTERS = {
    "dp.solves": "dp.solves",
    "dp.tables": "dp.tables",
    "dp.table_cells": "dp.table_cells",
    "dp.decisions": "dp.decisions",
    "insert.points": "insert.points",
    "kernel.compiles": "sim.kernel_compiles",
    "fault_sim.gate_evals": "sim.gate_evals",
    "fault_sim.dropped": "sim.faults_dropped",
    "npsim.plans": "sim.npsim_plans",
    "parallel.retries": "sim.parallel_retries",
    "parallel.degraded": "sim.parallel_degraded",
    "fabric.dispatches": "fabric.dispatches",
    "fabric.commits": "fabric.commits",
    "fabric.retries": "fabric.retries",
    "fabric.pool_respawns": "fabric.pool_respawns",
    "fabric.store.hits": "fabric.store.hits",
    "fabric.store.misses": "fabric.store.misses",
    "fabric.store.publishes": "fabric.store.publishes",
    "fabric.store.verifications": "fabric.store.verifications",
}

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S.*)$")


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Cumulative import seconds of ``repro.cli`` and ``numpy`` (first seen)."""
    found: Dict[str, float] = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        module = m.group(3).strip()
        if module in ("repro.cli", "numpy") and module not in found:
            found[module] = int(m.group(2)) / 1e6
    return found


def read_program_trace(path: Path) -> Tuple[Dict[str, float], float]:
    """(counters, summed job seconds) from a ``--trace-out`` JSONL file."""
    counters: Dict[str, float] = {}
    job_s = 0.0
    if not path.exists():
        return counters, job_s
    for line in path.read_text().splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record.get("event") == "metrics":
            counters = dict(record["metrics"].get("counters", {}))
        elif record.get("name") == "fabric.job_telemetry":
            job_s += float(record.get("seconds") or 0.0)
    return counters, job_s


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def attribute(traced: List[dict], fabric_workers: int) -> Dict[str, float]:
    """Per-layer metrics summed over one traced pass.

    ``traced`` holds one dict per command with keys ``label``, ``wall``,
    ``stderr``, ``spans`` (traced_cli payload) and ``trace`` (path of the
    program's JSONL trace).
    """
    out = {name: 0.0 for name, _ in PER_LAYER}
    imports, numpy_imports = [], []
    hits = 0.0
    for cmd in traced:
        times = parse_importtime(cmd["stderr"])
        if "repro.cli" in times:
            imports.append(times["repro.cli"])
        if "numpy" in times:
            numpy_imports.append(times["numpy"])
        totals = cmd["spans"].get("totals", {})
        for span, entry in totals.items():
            metric = SELF_TIME.get(span)
            if metric is not None:
                out[metric] += entry["self_s"]
        out["circuit.gates"] += cmd["spans"].get("gates_parsed", 0)
        out["testability.cop_calls"] += totals.get("testability.cop", {}).get("calls", 0)
        out["incremental.commits"] += totals.get("incremental.commit", {}).get("calls", 0)
        counters, job_s = read_program_trace(cmd["trace"])
        for name, metric in COUNTERS.items():
            out[metric] += counters.get(name, 0.0) + counters.get(f"worker.{name}", 0.0)
        hits += counters.get("kernel.cache_hits", 0.0) + counters.get(
            "worker.kernel.cache_hits", 0.0
        )
        out["sweep.job_s"] += job_s
        if job_s or counters.get("fabric.commits"):
            out["fabric.overhead_s"] += cmd["wall"] - job_s / fabric_workers
            lookups = counters.get("fabric.store.hits", 0.0) + counters.get(
                "fabric.store.misses", 0.0
            )
            which = "cold" if cmd["label"] == "sweep cold" else "rerun"
            out[f"fabric.store.hit_ratio_{which}"] = _ratio(
                counters.get("fabric.store.hits", 0.0), lookups
            )
    out["startup.import_s"] = statistics.median(imports) if imports else 0.0
    out["startup.numpy_import_s"] = statistics.median(numpy_imports) if numpy_imports else 0.0
    # Every workload runs its jobs in-process, so the spans saw all of it.
    out["dp.cells_per_s"] = _ratio(out["dp.table_cells"], out["dp.solve_s"])
    out["sim.gate_evals_per_s"] = _ratio(out["sim.gate_evals"], out["sim.fault_sim_s"])
    out["sim.kernel_reuse_ratio"] = _ratio(hits, out["sim.kernel_compiles"] + hits)
    return out
