"""Workload definitions: seeded inputs, command lists and output checks.

Each workload turns a seed into netlist files (written with the program's
own generators and ``write_bench_file``) and a fixed list of
``repro-tpi`` commands.  The program only ever sees the ``.bench`` files
and a ``--seed`` for its random patterns.  The netlists themselves come
from fixed generator seeds, because a circuit's shape swings its run
time far more than the host does; the workload seed drives the pattern
seed and, in the campaign, which circuits are new in the re-run.
Every command carries an untimed output check; a failed check counts the
command as failed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Why each workload exists (also the ``why`` of BENCHMARK.json).
WHY = {
    "tree-dp": "insert on two fixed AND/OR-type random trees plus experiments t2: "
    "the paper's DP is nearly all the time, fault simulation near zero",
    "randlogic-sim": "coverage (dp, greedy) and stats --drop on a deep, narrow random DAG: "
    "kernel compile and per-fault simulation dominate",
    "datapath-sim": "stats --drop and exact stats on gray_to_binary and array_multiplier: "
    "faults detected early, backend order mirrors randlogic",
    "campaign": "two sweep --fabric --store passes over a fixed pool of small DAGs: "
    "supervisor, journal and store costs; the re-run hits the store",
}

#: Circuit and pattern sizes per size preset.  ``smoke`` keeps the
#: benchmark's own tests fast; ``full`` is what BENCHMARK.json runs.
SIZES = {
    "full": {
        "trees": (36, 44),
        "tree_patterns": 4096,
        # (inputs, gates, generator seed): the library's rdag200.
        "dag": (24, 200, 7),
        "sim_patterns": 65536,
        "gray": 192,
        "gray_exact_patterns": 4096,
        "multiplier": 8,
        "campaign_old": 40,
        "campaign_new": 10,
        "campaign_gates": (12, 20),
        "campaign_patterns": 1024,
    },
    "smoke": {
        "trees": (8, 12),
        "tree_patterns": 256,
        "dag": (8, 40, 7),
        "sim_patterns": 1024,
        "gray": 16,
        "gray_exact_patterns": 256,
        "multiplier": 3,
        "campaign_old": 3,
        "campaign_new": 1,
        "campaign_gates": (10, 20),
        "campaign_patterns": 64,
    },
}

WORKLOADS = tuple(WHY)

#: Fabric pool width of the campaign.  On the reference host the two
#: vCPUs give one core's throughput (two CPU-bound processes each take
#: twice as long as one alone), so a 2-worker pool bought no speed-up and
#: its wall time swung with the neighbours' load; 1 runs the fabric's
#: supervisor, queue, journal and store in-process without a pool.
FABRIC_WORKERS = 1

#: Generator seeds of the fixed tree-dp trees and the campaign's fixed
#: netlist pool.
TREE_POOL_SEED = 10
CAMPAIGN_POOL_SEED = 20


@dataclass
class Command:
    """One ``repro-tpi`` invocation and how to check and score it."""

    label: str
    argv: List[str]
    kind: str  # insert | t2 | coverage | stats | sweep
    arbiter: bool = False  # stdout must equal the ``--kernel interp`` run
    gates: int = 0  # tree gates planned (insert)
    patterns: int = 0
    sim_passes: int = 0  # fault-simulation passes over the fault list
    circuits: List[str] = field(default_factory=list)  # sweep inputs
    quality: bool = True  # counts towards tp_cost / coverage_pct


@dataclass
class Plan:
    """A generated workload: its commands and the inputs' shape."""

    name: str
    why: str
    commands: List[Command]
    shape: Dict[str, object]
    #: Extra per-pass check run after the commands (untimed); returns
    #: failure messages.  Receives the pass directory, each command's
    #: stdout by label, and a function that runs a CLI command untimed.
    check_pass: Optional[Callable] = None


def _shape(circuits: Dict[str, object]) -> Dict[str, object]:
    from repro.sim.faults import collapse_faults

    shape = {}
    for name, circuit in circuits.items():
        stats = circuit.stats()
        shape[name] = {
            "gates": stats["gates"],
            "depth": stats["depth"],
            "mean_level_width": round(stats["gates"] / max(1, stats["depth"]), 2),
            "collapsed_faults": collapse_faults(circuit).size(),
        }
    return shape


def _write(circuit, path: Path) -> str:
    from repro.circuit.bench_io import write_bench_file

    write_bench_file(circuit, path)
    return path.name


def generate(name: str, seed: int, workdir: Path, size: str = "full") -> Plan:
    """Write the workload's inputs under ``workdir`` and list its commands."""
    sizes = SIZES[size]
    rng = random.Random(f"{name}:{seed}")
    pattern_seed = str(rng.randrange(1, 1 << 30))
    return _BUILDERS[name](rng, pattern_seed, workdir, sizes)


def _tree_dp(rng, pattern_seed, workdir, sizes) -> Plan:
    from repro.circuit.gates import GateType
    from repro.circuit.generators import random_tree

    # AND/OR-type trees are random-pattern resistant, so every tree needs
    # test points.  With XOR/XNOR in the mix many trees are feasible as
    # they are and the DP returns at once, which makes run time bimodal.
    # The trees are fixed (from TREE_POOL_SEED); the workload seed only
    # drives the pattern seed.  The DP's cost swings with a tree's shape:
    # with trees drawn per seed, ten seeds' wall times spread from 5.1 to
    # 10.6 s (IQR/median 0.22).
    gate_types = (GateType.AND, GateType.OR, GateType.NAND, GateType.NOR)
    tree_rng = random.Random(TREE_POOL_SEED)
    circuits, commands = {}, []
    for n_gates in sizes["trees"]:
        circuit = random_tree(n_gates, seed=tree_rng.randrange(1 << 30), gate_types=gate_types)
        fname = _write(circuit, workdir / f"tree{n_gates}.bench")
        circuits[fname] = circuit
        commands.append(Command(
            label=f"insert {fname}",
            argv=["insert", fname, "--patterns", str(sizes["tree_patterns"]),
                  "--seed", pattern_seed],
            kind="insert",
            gates=circuit.gate_count(),
        ))
    commands.append(Command(label="experiments t2", argv=["experiments", "--only", "t2"],
                            kind="t2"))
    return Plan("tree-dp", WHY["tree-dp"], commands, _shape(circuits))


def _randlogic(rng, pattern_seed, workdir, sizes) -> Plan:
    from repro.circuit.generators import random_dag

    n_inputs, n_gates, gen_seed = sizes["dag"]
    circuit = random_dag(n_inputs, n_gates, seed=gen_seed)
    fname = _write(circuit, workdir / f"rdag{n_gates}.bench")
    pats = str(sizes["sim_patterns"])
    common = [fname, "--patterns", pats, "--seed", pattern_seed]
    commands = [
        Command(f"coverage {fname}", ["coverage", *common], "coverage",
                arbiter=True, patterns=int(pats), sim_passes=2),
        Command(f"coverage greedy {fname}", ["coverage", *common, "--solver", "greedy"],
                "coverage", arbiter=True, patterns=int(pats), sim_passes=2),
        Command(f"stats drop {fname}", ["stats", *common, "--drop"], "stats",
                arbiter=True, patterns=int(pats), sim_passes=1),
    ]
    return Plan("randlogic-sim", WHY["randlogic-sim"], commands, _shape({fname: circuit}))


def _datapath(rng, pattern_seed, workdir, sizes) -> Plan:
    from repro.circuit.generators import array_multiplier, gray_to_binary

    gray = gray_to_binary(sizes["gray"])
    mult = array_multiplier(sizes["multiplier"])
    gname = _write(gray, workdir / f"gray{sizes['gray']}.bench")
    mname = _write(mult, workdir / f"mult{sizes['multiplier']}.bench")
    drop = str(sizes["sim_patterns"])
    exact = str(sizes["gray_exact_patterns"])
    commands = [
        Command(f"stats drop {gname}",
                ["stats", gname, "--patterns", drop, "--seed", pattern_seed, "--drop"],
                "stats", arbiter=True, patterns=int(drop), sim_passes=1),
        Command(f"stats exact {gname}",
                ["stats", gname, "--patterns", exact, "--seed", pattern_seed],
                "stats", arbiter=True, patterns=int(exact), sim_passes=1),
        Command(f"stats drop {mname}",
                ["stats", mname, "--patterns", drop, "--seed", pattern_seed, "--drop"],
                "stats", arbiter=True, patterns=int(drop), sim_passes=1),
    ]
    return Plan("datapath-sim", WHY["datapath-sim"], commands,
                _shape({gname: gray, mname: mult}))


def _campaign(rng, pattern_seed, workdir, sizes) -> Plan:
    from repro.circuit.generators import random_dag

    # The netlist pool is fixed (from CAMPAIGN_POOL_SEED); the workload
    # seed picks which circuits are new in the re-run and the file names.
    # The per-circuit cost is heavy-tailed, so netlists drawn per seed
    # would make the campaign's total work, and its wall time, swing by
    # seed; with a fixed pool both passes together compute the same 50
    # circuits on every seed.
    old_dir, new_dir = workdir / "old", workdir / "new"
    old_dir.mkdir()
    new_dir.mkdir()
    n_old, n_new = sizes["campaign_old"], sizes["campaign_new"]
    lo, hi = sizes["campaign_gates"]
    pool_rng = random.Random(CAMPAIGN_POOL_SEED)
    pool, seen = [], set()
    while len(pool) < n_old + n_new:
        circuit = random_dag(12, pool_rng.randint(lo, hi), seed=pool_rng.randrange(1 << 30))
        digest = circuit.structural_hash()
        if digest in seen:  # the fabric dedups identical netlists
            continue
        seen.add(digest)
        pool.append(circuit)
    order = list(range(len(pool)))
    rng.shuffle(order)
    names = {"old": [], "new": []}
    for idx, k in enumerate(order, start=1):
        group, directory = ("old", old_dir) if idx <= n_old else ("new", new_dir)
        names[group].append(_write(pool[k], directory / f"c{idx:02d}.bench")[:-6])
    pats = str(sizes["campaign_patterns"])
    flags = ["--fabric", "--workers", str(FABRIC_WORKERS), "--measure-coverage",
             "--patterns", pats]
    commands = [
        Command("sweep cold", ["sweep", "old", "--results", "{pass}/cold.jsonl",
                               "--store", "{pass}/store", *flags],
                "sweep", circuits=list(names["old"]), quality=False),
        Command("sweep rerun", ["sweep", "old", "new", "--results", "{pass}/rerun.jsonl",
                                "--store", "{pass}/store", *flags],
                "sweep", circuits=names["old"] + names["new"]),
    ]

    def check_pass(pass_dir: str, stdouts: Dict[str, str], run_cli) -> List[str]:
        """Both passes agree; store hits = circuits seen, publishes = new."""
        cold = sweep_lines(stdouts["sweep cold"])
        rerun = sweep_lines(stdouts["sweep rerun"])
        failures = [f"{c}: re-run result differs from the cold pass"
                    for c in cold if rerun.get(c) != cold[c]]
        out = run_cli(["fabric-status", f"{pass_dir}/rerun.jsonl",
                       "--store", f"{pass_dir}/store", "--json"])
        try:
            status = json.loads(out)
        except ValueError:
            return failures + ["fabric-status printed no JSON"]
        store = status.get("store") or {}
        want = {
            "commits": (status.get("commits"), n_old + n_new),
            "quarantined": (status.get("quarantined"), 0),
            "store.hits": (store.get("hits"), n_old),
            "store.publishes": (store.get("publishes"), n_old + n_new),
            "store.misses": (store.get("misses"), n_old + n_new),
            "store.corrupt": (store.get("corrupt"), 0),
        }
        return failures + [
            f"{k}={got} expected {exp}" for k, (got, exp) in want.items() if got != exp
        ]

    shape = {"circuits_old": n_old, "circuits_new": n_new, "gates_range": [lo, hi]}
    return Plan("campaign", WHY["campaign"], commands, shape, check_pass)


_BUILDERS = {
    "tree-dp": _tree_dp,
    "randlogic-sim": _randlogic,
    "datapath-sim": _datapath,
    "campaign": _campaign,
}

# ----------------------------------------------------------------------
# Output parsing and checks
# ----------------------------------------------------------------------

_INSERT = re.compile(r"feasible=(\w+) cost=([0-9.]+) points=(\d+)")
_FAULTS = re.compile(r"^faults\s+(\d+)", re.M)
_COV_FINAL = re.compile(r"^coverage\s+(?:[0-9.]+% -> )?([0-9.]+)%", re.M)
_SWEEP = re.compile(r"^(\S+)\s+(\w+): \S+ cost=([0-9.]+) points=\d+ cov=[0-9.]+%->([0-9.]+)%",
                    re.M)


def check(cmd: Command, stdout: str, expected: Optional[str]) -> List[str]:
    """Failure messages for one command's stdout (empty when correct)."""
    if cmd.arbiter:
        if expected is None:
            return ["no arbiter output"]
        return [] if stdout == expected else ["stdout differs from the interp arbiter"]
    if cmd.kind == "insert":
        m = _INSERT.search(stdout)
        if not m or m.group(1) != "True":
            return ["placement missing or infeasible"]
        return []
    if cmd.kind == "t2":
        rows = [ln.split() for ln in stdout.splitlines() if ln.startswith("rtree")]
        if not rows or any(r[-1] != "yes" for r in rows):
            return ["T2 row without a DP/exhaustive match"]
        return []
    if cmd.kind == "sweep":
        found = {m.group(1): m.group(2) for m in _SWEEP.finditer(stdout)}
        if sorted(found) != sorted(cmd.circuits):
            return [f"sweep reported {len(found)} of {len(cmd.circuits)} circuits"]
        bad = [c for c, status in found.items() if status != "ok"]
        return [f"sweep outcome not ok: {', '.join(bad)}"] if bad else []
    return []


def sweep_lines(stdout: str) -> Dict[str, str]:
    return {m.group(1): m.group(0) for m in _SWEEP.finditer(stdout)}


def score(cmd: Command, stdout: str) -> Dict[str, object]:
    """Quality and work figures read from a command's stdout."""
    out: Dict[str, object] = {}
    if cmd.kind == "insert":
        m = _INSERT.search(stdout)
        if m:
            out["tp_cost"] = float(m.group(2))
    elif cmd.kind in ("coverage", "stats"):
        faults = _FAULTS.search(stdout)
        cov = _COV_FINAL.search(stdout)
        if faults:
            out["fault_patterns"] = int(faults.group(1)) * cmd.patterns * cmd.sim_passes
        if cov:
            out["coverage"] = [float(cov.group(1))]
    elif cmd.kind == "sweep":
        matches = list(_SWEEP.finditer(stdout))
        out["tp_cost"] = sum(float(m.group(3)) for m in matches)
        out["coverage"] = [float(m.group(4)) for m in matches]
        out["circuits"] = len(matches)
    return out
