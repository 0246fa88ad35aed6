"""Cold end-to-end benchmark of the ``repro-tpi`` CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tree-dp --seed 1 --seconds 25 --trace 0

Each workload (see ``workloads.py``) is a fixed list of real CLI
commands.  Every command runs as a cold ``python -m repro`` subprocess,
one at a time (a closed loop with one client); the campaign runs the
fabric in-process (``workloads.FABRIC_WORKERS``).  The list is repeated
as often as it fits in ``--seconds`` (at least once) and each command's
median is reported.  Outputs are checked untimed (``workloads.check``).
With ``--trace 1`` one more pass runs every command under
``traced_cli.py`` and the per-layer metrics (``layers.py``) are printed
instead of the end-to-end ones.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: Cold ``import repro.cli`` repetitions whose median is ``setup_s``.
SETUP_REPEATS = 7
#: Per-command timeout; a command that hits it counts as failed.
COMMAND_TIMEOUT_S = 60.0
#: No new pass starts once the run is this old (the whole run must end
#: well inside three minutes).
HARD_LIMIT_S = 120.0


class Runner:
    """Runs cold CLI subprocesses and measures each one."""

    def __init__(self, root: Path, cwd: Path) -> None:
        self.cwd = cwd
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(root / "src")
        self.env = env

    def run(self, argv: List[str], timeout: float = COMMAND_TIMEOUT_S) -> dict:
        """Run ``argv`` in its own process group; wall, CPU and max RSS.

        CPU time and max RSS come from ``wait4``, so they include every
        child the command waited for (pool workers too).  Whatever the
        command leaves behind in its process group is killed.
        """
        out_path = self.cwd / ".stdout"
        err_path = self.cwd / ".stderr"
        timed_out = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.cwd, env=self.env, stdin=subprocess.DEVNULL,
                stdout=out, stderr=err, start_new_session=True,
            )
            timer = threading.Timer(timeout, lambda: (timed_out.set(), _kill_group(proc.pid)))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            _reap_group(proc.pid)
        return {
            "rc": proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
            "stdout": out_path.read_text(errors="replace"),
            "stderr": err_path.read_text(errors="replace"),
            "timed_out": timed_out.is_set(),
        }

    def cli(self, args: List[str], *, interp: bool = False) -> dict:
        argv = [sys.executable, "-m", "repro", *args]
        if interp:
            argv += ["--kernel", "interp"]
        return self.run(argv)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _reap_group(pgid: int) -> None:
    """Kill what is left of the group and wait until it is gone."""
    _kill_group(pgid)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def measure_setup(runner: Runner) -> float:
    """Median seconds of a cold ``import repro.cli`` in a fresh interpreter."""
    argv = [sys.executable, "-c", "import repro.cli"]
    runner.run(argv)  # writes bytecode caches once, untimed
    walls = []
    for _ in range(SETUP_REPEATS):
        res = runner.run(argv)
        if res["rc"] != 0:
            raise RuntimeError(f"cannot import repro.cli: {res['stderr'].strip()[-300:]}")
        walls.append(res["wall"])
    return statistics.median(walls)


def _argv(cmd: workloads.Command, pass_dir: str) -> List[str]:
    return [a.replace("{pass}", pass_dir) for a in cmd.argv]


def run_pass(runner: Runner, plan: workloads.Plan, pass_dir: str,
             expected: Dict[str, Optional[str]], reference: Dict[str, str],
             traced: bool = False) -> List[dict]:
    """Run every command of ``plan`` once and check its output.

    A traced pass runs each command under ``traced_cli.py`` with
    ``-X importtime`` and ``--trace-out`` and keeps what they record.
    """
    (runner.cwd / pass_dir).mkdir()
    results = []
    for i, cmd in enumerate(plan.commands):
        args = _argv(cmd, pass_dir)
        if traced:
            spans = runner.cwd / pass_dir / f"spans{i}.json"
            trace = runner.cwd / pass_dir / f"trace{i}.jsonl"
            res = runner.run([sys.executable, "-X", "importtime", str(HERE / "traced_cli.py"),
                              str(spans), "--", *args, "--trace-out", str(trace)])
            res["spans"] = json.loads(spans.read_text()) if spans.exists() else {}
            res["trace"] = trace
        else:
            res = runner.cli(args)
        res["label"] = cmd.label
        res["failures"] = _failures(cmd, res, expected.get(cmd.label), reference)
        results.append(res)
    _check_pass(runner, plan, pass_dir, results)
    return results


def _failures(cmd, res, expected, reference) -> List[str]:
    if res["timed_out"]:
        return ["timed out"]
    if res["rc"] != 0:
        return [f"exit code {res['rc']}: {res['stderr'].strip()[-200:]}"]
    failures = workloads.check(cmd, res["stdout"], expected)
    first = reference.setdefault(cmd.label, res["stdout"])
    if res["stdout"] != first:
        failures.append("stdout differs from the first pass")
    return failures


def _check_pass(runner, plan, pass_dir, results) -> None:
    if plan.check_pass is None:
        return
    stdouts = {cmd.label: res["stdout"] for cmd, res in zip(plan.commands, results)}
    failures = plan.check_pass(
        pass_dir, stdouts, lambda args: runner.cli(args)["stdout"]
    )
    results[-1]["failures"].extend(failures)


def workload_figures(plan: workloads.Plan, scores: List[dict],
                     med: List[float]) -> Dict[str, float]:
    """Workload-specific throughput and quality figures (untraced passes).

    ``scores`` holds each command's ``workloads.score`` and ``med`` its
    median wall time over the passes.
    """
    gates = sum(cmd.gates for cmd in plan.commands)
    insert_wall = sum(m for m, cmd in zip(med, plan.commands) if cmd.kind == "insert")
    fault_patterns = sum(s.get("fault_patterns", 0) for s in scores)
    sim_wall = sum(m for m, s in zip(med, scores) if "fault_patterns" in s)
    sweeps = [(m, s) for m, s, cmd in zip(med, scores, plan.commands) if cmd.kind == "sweep"]
    quality = [s for s, cmd in zip(scores, plan.commands) if cmd.quality]
    coverage = [c for s in quality for c in s.get("coverage", [])]
    return {
        "workload.dp_gates_per_s": gates / insert_wall if insert_wall else 0.0,
        "workload.mfp_per_s": fault_patterns / sim_wall / 1e6 if sim_wall else 0.0,
        "workload.circuits_per_s": (
            sum(s["circuits"] for _, s in sweeps) / sum(m for m, _ in sweeps) if sweeps else 0.0
        ),
        "workload.cold_campaign_s": sweeps[0][0] if sweeps else 0.0,
        "workload.rerun_campaign_s": sweeps[-1][0] if len(sweeps) > 1 else 0.0,
        "workload.tp_cost": sum(s.get("tp_cost", 0.0) for s in quality),
        "workload.coverage_pct": statistics.fmean(coverage) if coverage else 0.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 work: Path, size: str = "full", log=print) -> dict:
    started = time.perf_counter()
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    runner = Runner(root, inputs)
    setup_s = measure_setup(runner)
    plan = workloads.generate(name, seed, inputs, size)
    log(f"workload {name} seed {seed}: {plan.why}")
    log(f"shape {json.dumps(plan.shape, sort_keys=True)}")

    # Expected outputs from the same commit's interpreted arbiter, untimed.
    expected: Dict[str, Optional[str]] = {}
    for cmd in plan.commands:
        if cmd.arbiter:
            res = runner.cli(_argv(cmd, "arbiter"), interp=True)
            expected[cmd.label] = res["stdout"] if res["rc"] == 0 else None

    reference: Dict[str, str] = {}
    passes: List[List[dict]] = []
    measure_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(runner, plan, f"pass{len(passes)}", expected, reference))
        now = time.perf_counter()
        # Start another pass only if one more is expected to fit.
        pass_s = now - pass_start
        if now - measure_start + pass_s > seconds or now - started + pass_s > HARD_LIMIT_S:
            break
    runs = [res for p in passes for res in p]
    columns = range(len(plan.commands))
    med_wall = [statistics.median([p[i]["wall"] for p in passes]) for i in columns]
    wall = sum(med_wall)
    log(f"{len(passes)} passes; per-command median wall: " + ", ".join(
        f"{cmd.label}={m:.3f}s" for cmd, m in zip(plan.commands, med_wall)
    ))
    scores = [workloads.score(cmd, res["stdout"]) for cmd, res in zip(plan.commands, passes[0])]
    log("mean coverage % at the pattern budget: " + json.dumps({
        cmd.label: round(statistics.fmean(s["coverage"]), 2)
        for cmd, s in zip(plan.commands, scores) if s.get("coverage")
    }))

    if trace:
        traced = run_pass(runner, plan, "traced", expected, reference, traced=True)
        runs += traced
        values = layers.attribute(traced, workloads.FABRIC_WORKERS)
        values.update(workload_figures(plan, scores, med_wall))
        traced_wall = sum(res["wall"] for res in traced)
        values["trace.overhead_pct"] = 100.0 * (traced_wall - wall) / wall
        metrics = {k: {"value": values[k], "unit": u} for k, u in layers.PER_LAYER}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall,
            "cpu_s": sum(statistics.median([p[i]["cpu"] for p in passes]) for i in columns),
            "peak_rss_mb": max(res["rss_kb"] for res in runs) / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    for res in runs:
        for failure in res["failures"]:
            log(f"FAILED {res['label']}: {failure}")
    failed = sum(1 for res in runs if res["failures"])
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input size preset (smoke: the benchmark's own tests)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              root, work, args.size)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
