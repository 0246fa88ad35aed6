"""Crash-isolated, journaled, resumable sweep + experiment runners."""

import json
from dataclasses import asdict

import pytest

from repro.analysis import experiments as exps
from repro.analysis.experiments import (
    SweepOutcome,
    run_circuit_sweep,
    run_experiments_checkpointed,
)
from repro.errors import ExperimentError
from repro.ioutil import read_jsonl_tolerant
from repro.resilience import Budget


def _paths(circuit_dir):
    return sorted(circuit_dir.glob("*.bench"))


def _records(results_path):
    return [
        json.loads(line) for line in results_path.read_text().splitlines()
    ]


def _commits(results_path):
    records, _good, _torn = read_jsonl_tolerant(results_path)
    return [r for r in records if r["type"] == "commit"]


class TestCrashIsolation:
    def test_corrupt_circuit_recorded_not_raised(self, circuit_dir, tmp_path):
        results = tmp_path / "results.journal"
        outcomes = run_circuit_sweep(
            _paths(circuit_dir), results, n_patterns=64
        )
        by_name = {o.circuit: o for o in outcomes}
        assert by_name["a_wand4"].ok and by_name["c17"].ok
        bad = by_name["corrupt"]
        assert bad.status == "parse_error"
        assert bad.error_type == "ParseError"
        assert "ghost" in bad.error
        # every outcome committed to the journal as one record
        assert len(_commits(results)) == 3

    def test_budget_exhaustion_recorded(self, circuit_dir, tmp_path):
        results = tmp_path / "results.journal"
        outcomes = run_circuit_sweep(
            _paths(circuit_dir),
            results,
            n_patterns=64,
            solvers=("dp",),  # no fallback stage: exhaustion is terminal
            budget=Budget(max_dp_cells=1),
        )
        statuses = {o.circuit: o.status for o in outcomes}
        assert statuses["corrupt"] == "parse_error"
        assert statuses["a_wand4"] == "budget_exceeded"
        assert statuses["c17"] == "budget_exceeded"

    def test_fallback_rescues_budgeted_circuits(self, circuit_dir, tmp_path):
        outcomes = run_circuit_sweep(
            _paths(circuit_dir),
            tmp_path / "results.journal",
            n_patterns=64,
            budget=Budget(max_dp_cells=1),  # full dp→greedy→random cascade
        )
        by_name = {o.circuit: o for o in outcomes}
        assert by_name["a_wand4"].ok
        assert by_name["a_wand4"].solver == "greedy"
        assert by_name["a_wand4"].fallbacks == 1


class TestResume:
    def test_interrupted_then_resumed_equals_uninterrupted(
        self, circuit_dir, tmp_path
    ):
        paths = _paths(circuit_dir)

        # Uninterrupted reference run.
        ref_results = tmp_path / "ref.journal"
        reference = run_circuit_sweep(paths, ref_results, n_patterns=64)

        # Simulated kill after one circuit, then resume.
        results = tmp_path / "resumed.journal"
        first = run_circuit_sweep(
            paths, results, n_patterns=64, max_circuits=1
        )
        assert len(first) == 1
        second = run_circuit_sweep(paths, results, n_patterns=64)
        assert len(second) == len(paths)

        assert _records(results) == _records(ref_results)
        assert [asdict(o) for o in second] == [asdict(o) for o in reference]

    def test_resume_skips_completed_circuits(self, circuit_dir, tmp_path):
        results = tmp_path / "results.journal"
        run_circuit_sweep(_paths(circuit_dir), results, n_patterns=64)
        before = results.read_text()
        outcomes = run_circuit_sweep(
            _paths(circuit_dir), results, n_patterns=64
        )
        assert results.read_text() == before  # nothing re-ran or re-wrote
        assert len(outcomes) == 3

    def test_torn_final_line_tolerated(self, circuit_dir, tmp_path):
        results = tmp_path / "results.journal"
        run_circuit_sweep(
            _paths(circuit_dir), results, n_patterns=64, max_circuits=1
        )
        with results.open("a") as f:
            f.write('{"type": "commit", "job_id": "x", "re')  # torn write
        outcomes = run_circuit_sweep(
            _paths(circuit_dir), results, n_patterns=64
        )
        assert {o.circuit for o in outcomes} == {"a_wand4", "c17", "corrupt"}
        assert len(_commits(results)) == 3

    def test_corrupt_record_reruns_only_its_circuit(
        self, circuit_dir, tmp_path
    ):
        results = tmp_path / "results.journal"
        paths = _paths(circuit_dir)
        first = run_circuit_sweep(paths, results, n_patterns=64)
        lines = results.read_text().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]  # corrupt the FIRST record
        results.write_text("\n".join(lines) + "\n")
        second = run_circuit_sweep(paths, results, n_patterns=64)
        assert second == first
        # The two intact records were reused; only the lost one re-ran.
        commits = _commits(results)
        assert len(commits) == 3
        assert len({c["job_id"] for c in commits}) == 3
        assert len(results.read_text().splitlines()) == 4


class TestSweepOutcome:
    def test_round_trips_through_json(self):
        # Journal commits and store entries hold outcomes as JSON.
        outcome = SweepOutcome(
            circuit="c17",
            path="x/c17.bench",
            status="ok",
            solver="dp-heuristic",
            cost=1.5,
            n_points=2,
            fallbacks=0,
        )
        decoded = json.loads(json.dumps(asdict(outcome)))
        assert SweepOutcome(**decoded) == outcome

    def test_describe_mentions_failure(self):
        outcome = SweepOutcome(
            circuit="bad",
            path="bad.bench",
            status="parse_error",
            error_type="ParseError",
            error="bad.bench:3: nope",
        )
        assert not outcome.ok
        assert "parse_error" in outcome.describe()


class TestExperimentsCheckpointed:
    @staticmethod
    def _fake_f4():
        result = exps.ExperimentResult(
            experiment_id="F4",
            description="stub",
            headers=["x"],
        )
        result.rows.append([1])
        return result

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="unknown experiments"):
            run_experiments_checkpointed(["zz"], tmp_path / "r.journal")

    def test_failure_isolated_and_rest_continue(self, tmp_path, monkeypatch):
        def boom():
            raise RuntimeError("experiment crashed")

        monkeypatch.setattr(exps, "run_t2_dp_optimality", boom)
        monkeypatch.setattr(exps, "run_f4_quantization_ablation", self._fake_f4)
        results = tmp_path / "r.journal"
        records = run_experiments_checkpointed(["t2", "f4"], results)
        assert [r["experiment"] for r in records] == ["t2", "f4"]
        assert records[0]["status"] == "error"
        assert records[0]["error"] == "experiment crashed"
        assert records[1]["status"] == "ok"
        assert "[F4]" in records[1]["rendered"]

    def test_resume_does_not_rerun(self, tmp_path, monkeypatch):
        monkeypatch.setattr(exps, "run_f4_quantization_ablation", self._fake_f4)
        results = tmp_path / "r.journal"
        run_experiments_checkpointed(["f4"], results)
        before = results.read_text()

        def boom():
            raise AssertionError("must not re-run a recorded experiment")

        monkeypatch.setattr(exps, "run_f4_quantization_ablation", boom)
        records = run_experiments_checkpointed(["f4"], results)
        assert results.read_text() == before
        assert records[0]["status"] == "ok"
