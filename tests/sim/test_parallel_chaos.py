"""Chaos hardening: injected worker failures must never change results.

Every test compares a `run_parallel` call under deterministic fault
injection (`ChaosSpec`) against the plain serial `FaultSimulator.run`:
the contract is bit-identical detection words and first-detect indices
no matter what the workers do, with the recovery visible in the
`parallel.retries` / `parallel.degraded` observability counters.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.circuit import generators
from repro.obs.recorder import RunRecorder
from repro.resilience import ChaosSpec
from repro.sim import FaultSimulator, UniformRandomSource, run_parallel


def _workload(seed=0, n_gates=30, n_patterns=128):
    circuit = generators.random_dag(5, n_gates, seed=seed)
    stimulus = UniformRandomSource(seed=seed).generate(
        circuit.inputs, n_patterns
    )
    return circuit, stimulus, n_patterns


def _serial(circuit, stimulus, n):
    return FaultSimulator(circuit).run(stimulus, n)


def _assert_identical(parallel, serial):
    assert parallel.detection_word == serial.detection_word
    assert parallel.first_detect == serial.first_detect
    assert parallel.n_patterns == serial.n_patterns


class _Counters:
    """Context manager capturing obs counters for one block."""

    def __enter__(self):
        self.recorder = RunRecorder(None)
        self.previous = obs.set_recorder(self.recorder)
        return self

    def __exit__(self, *exc):
        obs.set_recorder(self.previous)
        self.snapshot = self.recorder.metrics.snapshot().get("counters", {})
        self.recorder.close()
        return False

    def value(self, name):
        return self.snapshot.get(name, 0.0)


class TestChaosSpec:
    def test_deterministic_action(self):
        spec = ChaosSpec(seed=3, crash=0.25, stall=0.25)
        actions = [spec.action(i, 0) for i in range(50)]
        assert actions == [spec.action(i, 0) for i in range(50)]
        assert any(actions)  # 50% total probability: some chunk is hit

    def test_first_attempt_only(self):
        spec = ChaosSpec(seed=0, forced=((0, "crash"),))
        assert spec.action(0, 0) == "crash"
        assert spec.action(0, 1) is None

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            ChaosSpec(crash=0.7, stall=0.7)

    def test_forced_action_validated(self):
        with pytest.raises(ValueError):
            ChaosSpec(forced=((0, "explode"),))


class TestCrashAndHang:
    def test_worker_crash_and_hung_chunk_seed0(self):
        """The acceptance scenario: crash + hang, seed 0, bit-identical."""
        circuit, stimulus, n = _workload(seed=0)
        serial = _serial(circuit, stimulus, n)
        chaos = ChaosSpec(
            seed=0, forced=((0, "crash"), (1, "stall")), stall_seconds=5.0
        )
        with _Counters() as counters:
            parallel = run_parallel(
                circuit,
                stimulus,
                n,
                jobs=2,
                chaos=chaos,
                chunk_timeout=0.75,
            )
        _assert_identical(parallel, serial)
        assert (
            counters.value("parallel.retries")
            + counters.value("parallel.degraded")
            > 0
        )

    def test_seeded_random_crashes(self):
        circuit, stimulus, n = _workload(seed=1)
        serial = _serial(circuit, stimulus, n)
        parallel = run_parallel(
            circuit, stimulus, n, jobs=2,
            chaos=ChaosSpec(seed=7, crash=0.5),
        )
        _assert_identical(parallel, serial)


class TestCorruptAndSpurious:
    def test_corrupt_payload_retried(self):
        circuit, stimulus, n = _workload(seed=2)
        serial = _serial(circuit, stimulus, n)
        with _Counters() as counters:
            parallel = run_parallel(
                circuit, stimulus, n, jobs=2,
                chaos=ChaosSpec(seed=0, forced=((0, "corrupt"),)),
            )
        _assert_identical(parallel, serial)
        assert counters.value("parallel.retries") >= 1

    def test_spurious_exception_retried(self):
        circuit, stimulus, n = _workload(seed=3)
        serial = _serial(circuit, stimulus, n)
        with _Counters() as counters:
            parallel = run_parallel(
                circuit, stimulus, n, jobs=2,
                chaos=ChaosSpec(seed=0, forced=((1, "spurious"),)),
            )
        _assert_identical(parallel, serial)
        assert counters.value("parallel.retries") >= 1

    def test_everything_at_once(self):
        circuit, stimulus, n = _workload(seed=4)
        serial = _serial(circuit, stimulus, n)
        chaos = ChaosSpec(
            seed=11,
            forced=((0, "crash"), (1, "corrupt"), (2, "spurious")),
            stall_seconds=5.0,
        )
        parallel = run_parallel(
            circuit, stimulus, n, jobs=3, chaos=chaos, chunk_timeout=2.0
        )
        _assert_identical(parallel, serial)


class TestDegradation:
    def test_persistent_failure_degrades_to_serial(self):
        """Chaos on every attempt: chunks degrade, result still exact."""
        circuit, stimulus, n = _workload(seed=5)
        serial = _serial(circuit, stimulus, n)
        chaos = ChaosSpec(
            seed=0,
            forced=((0, "corrupt"),),
            first_attempt_only=False,  # retries fail too
        )
        with _Counters() as counters:
            parallel = run_parallel(
                circuit, stimulus, n, jobs=2, chaos=chaos, max_attempts=2
            )
        _assert_identical(parallel, serial)
        assert counters.value("parallel.degraded") >= 1

    def test_coverage_mode_under_chaos(self):
        circuit, stimulus, n = _workload(seed=6)
        serial = _serial(circuit, stimulus, n)
        parallel = run_parallel(
            circuit, stimulus, n, jobs=2, mode="coverage",
            chaos=ChaosSpec(seed=0, forced=((1, "crash"),)),
        )
        assert parallel.first_detect == serial.first_detect
        assert parallel.coverage() == serial.coverage()


class TestSweepSurvivesChaos:
    def test_sweep_checkpoint_intact_after_chaotic_coverage(self, tmp_path):
        """A sweep using parallel coverage loses no journaled data."""
        from repro.analysis.experiments import run_circuit_sweep
        from repro.circuit.bench_io import write_bench

        paths = []
        for i in range(3):
            c = generators.random_dag(4, 12, seed=i)
            p = tmp_path / f"c{i}.bench"
            p.write_text(write_bench(c))
            paths.append(p)
        journal = tmp_path / "sweep.journal"
        outcomes = run_circuit_sweep(
            paths, journal, n_patterns=64, measure_coverage=True, jobs=2
        )
        assert all(o.ok for o in outcomes)
        before = journal.read_bytes()
        resumed = run_circuit_sweep(
            paths, journal, n_patterns=64, measure_coverage=True
        )
        assert resumed == outcomes
        assert journal.read_bytes() == before
