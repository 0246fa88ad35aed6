"""The fabric's acceptance bar: bit-identical to serial, exactly once.

Every test solves the same circuits one at a time without the fabric
(the reference) and through the fabric (with some injected failure),
then asserts the outcome lists are *equal as data* and that the journal
holds exactly one commit per job.  Chaos may change scheduling; it must
never change results.
"""

from __future__ import annotations

import shutil
from dataclasses import asdict

import pytest

from repro.analysis import experiments as exps
from repro.errors import SweepInterrupted
from repro.fabric import quarantine_dir_for
from repro.resilience.chaos import ChaosSpec
from repro.resilience.interrupt import GracefulInterrupt

N_PATTERNS = 64


def _fabric(paths, journal_path, **kw):
    kw.setdefault("workers", 2)
    outcomes = exps.run_circuit_sweep(
        paths, journal_path, n_patterns=N_PATTERNS, **kw
    )
    return [asdict(o) for o in outcomes]


class TestBitIdentity:
    def test_no_chaos(
        self, tmp_path, bench_paths, commit_counts, reference_sweep
    ):
        serial = reference_sweep(bench_paths, N_PATTERNS)
        fabric = _fabric(bench_paths, tmp_path / "fabric.journal")
        assert fabric == serial
        counts = commit_counts(tmp_path / "fabric.journal")
        assert len(counts) == len(bench_paths)
        assert set(counts.values()) == {1}

    def test_structural_dedup(
        self, tmp_path, bench_paths, counters, reference_sweep
    ):
        # A byte-for-byte copy has the same structural hash: one job,
        # one commit, two outcomes (rehydrated per path).
        clone = bench_paths[0].with_name("clone.bench")
        shutil.copyfile(bench_paths[0], clone)
        paths = list(bench_paths) + [clone]
        serial = reference_sweep(paths, N_PATTERNS)
        with counters() as ctrs:
            fabric = _fabric(paths, tmp_path / "fabric.journal")
        assert fabric == serial
        assert ctrs.value("sweep.deduped") == 1
        assert ctrs.value("fabric.commits") == len(bench_paths)
        # The clone's outcome is the shared result under its own name.
        assert fabric[-1]["circuit"] == "clone"
        assert fabric[-1]["cost"] == fabric[0]["cost"]

    def test_resume_serves_from_journal(self, tmp_path, bench_paths, counters):
        journal = tmp_path / "fabric.journal"
        first = _fabric(bench_paths, journal)
        with counters() as ctrs:
            second = _fabric(bench_paths, journal)
        assert second == first
        assert ctrs.value("fabric.cache_hits") == len(bench_paths)
        assert ctrs.value("fabric.dispatches") == 0
        assert ctrs.value("fabric.commits") == 0


class TestChaos:
    """One forced fault on job 1, first attempt only — must converge."""

    @pytest.mark.parametrize(
        "mode",
        ["crash", "stall", "corrupt", "spurious", "enospc", "duplicate"],
    )
    def test_forced_fault_is_invisible_in_results(
        self, tmp_path, bench_paths, commit_counts, counters, mode,
        reference_sweep,
    ):
        serial = reference_sweep(bench_paths, N_PATTERNS)
        chaos = ChaosSpec(
            seed=7, forced=((1, mode),), stall_seconds=2.5
        )
        journal = tmp_path / "fabric.journal"
        with counters() as ctrs:
            fabric = _fabric(
                bench_paths, journal, chaos=chaos, lease_timeout_s=1.0
            )
        assert fabric == serial
        counts = commit_counts(journal)
        assert len(counts) == len(bench_paths)
        assert set(counts.values()) == {1}, "a job committed twice"
        if mode == "crash":
            assert ctrs.value("fabric.pool_breaks") >= 1
        elif mode == "stall":
            assert ctrs.value("fabric.lease_expired") >= 1
        elif mode in ("corrupt", "spurious"):
            assert ctrs.value("fabric.retries") >= 1
        elif mode == "enospc":
            assert ctrs.value("fabric.journal_write_errors") == 1
        elif mode == "duplicate":
            assert ctrs.value("fabric.duplicates_rejected") >= 1

    def test_probabilistic_mix_converges(
        self, tmp_path, bench_paths, commit_counts, reference_sweep
    ):
        serial = reference_sweep(bench_paths, N_PATTERNS)
        chaos = ChaosSpec(
            seed=3,
            crash=0.2,
            corrupt=0.2,
            spurious=0.2,
            enospc=0.2,
            duplicate=0.2,
        )
        journal = tmp_path / "fabric.journal"
        fabric = _fabric(bench_paths, journal, chaos=chaos)
        assert fabric == serial
        assert set(commit_counts(journal).values()) == {1}


class TestQuarantine:
    def test_poison_job_is_quarantined_with_artifact(
        self, tmp_path, bench_paths, counters, reference_sweep
    ):
        # first_attempt_only=False: job 1 raises on *every* attempt —
        # genuine poison, not a transient.
        chaos = ChaosSpec(
            forced=((1, "spurious"),), first_attempt_only=False
        )
        journal = tmp_path / "fabric.journal"
        with counters() as ctrs:
            fabric = _fabric(bench_paths, journal, chaos=chaos)
        good = [o for o in fabric if o["status"] == "ok"]
        poison = [o for o in fabric if o["status"] == "quarantined"]
        assert len(good) == len(bench_paths) - 1
        assert len(poison) == 1
        assert poison[0]["circuit"] == bench_paths[1].stem
        assert poison[0]["error_type"] == "RuntimeError"
        assert ctrs.value("fabric.quarantined") == 1
        # Repro-bundle-style artifact: payload + full error history.
        qdir = quarantine_dir_for(journal)
        artifacts = list(qdir.glob("*/job.json"))
        assert len(artifacts) == 1
        # Healthy jobs match what serial would have produced.
        serial = reference_sweep(bench_paths, N_PATTERNS)
        assert good == [
            s for s in serial if s["circuit"] != bench_paths[1].stem
        ]

    def test_resume_never_retries_poison(
        self, tmp_path, bench_paths, counters
    ):
        chaos = ChaosSpec(
            forced=((1, "spurious"),), first_attempt_only=False
        )
        journal = tmp_path / "fabric.journal"
        first = _fabric(bench_paths, journal, chaos=chaos)
        with counters() as ctrs:
            second = _fabric(bench_paths, journal)  # chaos gone, still poison
        assert second == first
        assert ctrs.value("fabric.dispatches") == 0
        assert ctrs.value("fabric.cache_hits") == len(bench_paths) - 1


class TestBreaker:
    def test_cascading_crashes_degrade_to_serial(
        self, tmp_path, bench_paths, commit_counts, counters, reference_sweep
    ):
        # Jobs 0 and 1 crash their worker on every pool attempt; after
        # the respawn also breaks, the breaker trips and the campaign
        # drains in-process — where there is no worker to kill, so the
        # exact same results land anyway.
        serial = reference_sweep(bench_paths, N_PATTERNS)
        chaos = ChaosSpec(
            forced=((0, "crash"), (1, "crash")), first_attempt_only=False
        )
        journal = tmp_path / "fabric.journal"
        with counters() as ctrs:
            fabric = _fabric(bench_paths, journal, chaos=chaos)
        assert fabric == serial
        assert set(commit_counts(journal).values()) == {1}
        assert ctrs.value("fabric.breaker_trips") == 1
        assert ctrs.value("fabric.serial_drains") >= 1
        assert ctrs.value("fabric.parent_runs") >= 1


class TestExperimentsOnFabric:
    def test_records_match_serial_and_resume(self, tmp_path, monkeypatch):
        class FakeResult:
            def render(self):
                return "TABLE t1"

        monkeypatch.setattr(
            exps, "experiment_runners", lambda: {"t1": FakeResult}
        )
        # The default workers=1 runs in-process, so the monkeypatch holds.
        journal = tmp_path / "exps.journal"
        records = exps.run_experiments_checkpointed(["t1"], journal)
        assert records == [
            {"experiment": "t1", "status": "ok", "rendered": "TABLE t1"}
        ]
        again = exps.run_experiments_checkpointed(["t1"], journal)
        assert again == records


class TestInterrupt:
    def test_interrupt_raises_resumable_and_journal_survives(
        self, tmp_path, bench_paths, reference_sweep
    ):
        stop = GracefulInterrupt(install=False)
        stop.request("SIGTERM")
        journal = tmp_path / "fabric.journal"
        with pytest.raises(SweepInterrupted):
            _fabric(bench_paths, journal, workers=1, interrupt=stop)
        # Rerunning without the stop request completes the campaign and
        # is still bit-identical to serial.
        serial = reference_sweep(bench_paths, N_PATTERNS)
        fabric = _fabric(bench_paths, journal, workers=1)
        assert fabric == serial
