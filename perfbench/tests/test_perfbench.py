"""Tests of the benchmark itself, on the tiny ``--size smoke`` inputs.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_matches_the_code():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", trace, "--size", "smoke")
    result = _result(proc)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    key = "end_to_end" if trace == "0" else "per_layer"
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if trace == "0":
            assert metric["value"] > 0, name


def test_planted_wrong_expected_output_raises_fail_ratio(tmp_path, monkeypatch):
    real_cli = run.Runner.cli

    def planted(self, args, *, interp=False):
        res = real_cli(self, args, interp=interp)
        if interp:  # the arbiter's answer, i.e. the expected output
            res["stdout"] = res["stdout"].replace("coverage", "coverage 0.01%", 1)
        return res

    monkeypatch.setattr(run.Runner, "cli", planted)
    result = run.run_workload("datapath-sim", 3, 0.1, False, ROOT, tmp_path / "work",
                              size="smoke", log=lambda *_: None)
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0
    assert result["correct"] is False


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "tree-dp", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, workload):
    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        plan = workloads.generate(workload, seed, d, "smoke")
        texts = {str(p.relative_to(d)): p.read_text() for p in sorted(d.rglob("*.bench"))}
        return [cmd.argv for cmd in plan.commands], texts

    a = files(5, "a")
    assert a == files(5, "b")
    assert a != files(6, "c")


def test_checks_reject_bad_outputs():
    t2 = workloads.Command("t2", [], "t2")
    good = "rtree6_s0  0.020  0        0             yes\n"
    assert workloads.check(t2, good, None) == []
    assert workloads.check(t2, good.replace("yes", "no"), None)
    assert workloads.check(t2, "", None)

    insert = workloads.Command("insert", [], "insert")
    assert workloads.check(insert, "method=dp feasible=True cost=1 points=2", None) == []
    assert workloads.check(insert, "method=dp feasible=False cost=1 points=2", None)

    sweep = workloads.Command("sweep", [], "sweep", circuits=["c01", "c02"])
    line = "{}   {}: dp-heuristic cost=1.5 points=2 cov=84.5%->88.0%\n"
    ok = line.format("c01", "ok") + line.format("c02", "ok")
    assert workloads.check(sweep, ok, None) == []
    assert workloads.check(sweep, line.format("c01", "ok"), None)
    assert workloads.check(sweep, ok.replace("c02   ok", "c02   failed"), None)


def test_importtime_parsing():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |     150000 | numpy\n"
        "import time:       300 |     450000 | repro.cli\n"
        "import time:       300 |     999999 | repro.cli\n"
    )
    assert layers.parse_importtime(stderr) == {"numpy": 0.15, "repro.cli": 0.45}
