"""Satellite 4: kill -9 a live fabric campaign, resume, lose nothing.

The property under test is the ISSUE's acceptance bar verbatim: a fabric
sweep that is SIGKILLed mid-campaign (no atexit, no finally, no flush —
the process group just stops existing) and then resumed produces results
bit-identical to solving each circuit directly (no supervisor, journal
or dedup), with every job committed exactly once across the *entire*
journal history, torn lines included.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.analysis import experiments as exps
from repro.circuit import generators, write_bench_file

N_CIRCUITS = 12
N_PATTERNS = 256

_RUNNER = """\
import sys
from pathlib import Path

from repro.analysis.experiments import run_circuit_sweep

circuits = sorted(Path(sys.argv[1]).glob("*.bench"))
run_circuit_sweep(
    circuits,
    sys.argv[2],
    n_patterns={n_patterns},
    measure_coverage=True,
    workers=2,
)
"""


@pytest.fixture
def many_circuits(tmp_path):
    d = tmp_path / "circuits"
    d.mkdir()
    paths = []
    for i in range(N_CIRCUITS):
        circuit = generators.random_dag(5, 25, seed=70 + i)
        p = d / f"k{i:02d}.bench"
        write_bench_file(circuit, p)
        paths.append(p)
    return paths


def _count_commits(journal_path):
    """job_id -> commit-record count over the whole journal history."""
    import json

    counts = {}
    if not journal_path.exists():
        return counts
    for line in journal_path.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn line: legal evidence of the kill
        if record.get("type") == "commit":
            counts[record["job_id"]] = counts.get(record["job_id"], 0) + 1
    return counts


def test_kill9_then_resume_is_bit_identical(
    tmp_path, many_circuits, reference_sweep
):
    journal = tmp_path / "fabric.journal"
    script = tmp_path / "runner.py"
    script.write_text(_RUNNER.format(n_patterns=N_PATTERNS))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    proc = subprocess.Popen(
        [sys.executable, str(script), str(many_circuits[0].parent), str(journal)],
        env=env,
        start_new_session=True,  # its own process group: workers die too
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        # Wait for the campaign to be demonstrably mid-flight (some
        # commits durable, more to come), then kill the whole group hard.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if len(_count_commits(journal)) >= 3:
                break
            time.sleep(0.02)
        killed = proc.poll() is None
        if killed:
            os.killpg(proc.pid, signal.SIGKILL)
        returncode = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)

    committed_at_kill = _count_commits(journal)
    if killed:
        assert returncode == -signal.SIGKILL
        # A kill this hard may tear the line in flight, never a
        # committed one: nothing recorded so far is duplicated.
        assert all(n == 1 for n in committed_at_kill.values())
        assert len(committed_at_kill) < N_CIRCUITS, (
            "campaign finished before the kill landed; nothing was tested"
        )

    # Resume in-process: the journal replays, survivors are cache hits,
    # the remainder runs to completion.
    resumed = exps.run_circuit_sweep(
        many_circuits,
        journal,
        n_patterns=N_PATTERNS,
        measure_coverage=True,
        workers=2,
    )

    serial = reference_sweep(
        many_circuits, N_PATTERNS, measure_coverage=True
    )
    assert [asdict(o) for o in resumed] == serial

    # Exactly-once across the whole history: pre-kill commits were not
    # re-committed on resume, and every job has exactly one record.
    final = _count_commits(journal)
    assert len(final) == N_CIRCUITS
    assert set(final.values()) == {1}
    for job_id in committed_at_kill:
        assert final[job_id] == 1
