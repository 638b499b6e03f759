#!/usr/bin/env python3
"""Before/after benchmark: a parent revision against the checkout.

    python scripts/bench.py --parent REV --seeds 601,602,603 --out BENCH_4.json

Runs REV's committed MEASURED_PATHS (via git archive) and a copy of the
checkout's, both in a temporary directory and free of bytecode caches, in
rounds of fresh ``python`` processes with PYTHONPATH at each tree's
``src/``; the side that runs first swaps each round, so that drift in
machine speed favours neither.  ``workloads``: per workload, a round per
seed of ``perfbench/run.py --trace 0`` for --seconds of op time (default:
BENCHMARK.json run_seconds).
``layers``: a round per seed of LAYER_SCRIPT (series calls and an alpha-0.05
pair solve on the cdf_curve keys, which the cache holds, and ``fresh_key_us``:
an alpha-0.05 upper tail quantile and a full ``utp`` on a key never used
before, gof's series cost per op), and calibrate's layers:
``vn_block_{10,50,180}_us``, one scheme0 ``vn_from_probs`` call on a seeded
sorted (1024, n) block; ``sim_cycle_us``, one calibrate cycle of
2000-replication scheme0 ``simulate_type1`` calls with the ks and stephens
comparators at n = 10, 50 and 180 in turn, and ``sim_cycle_minflt``, its
minor page faults (``ru_minflt``);
``table_{table,csv,json}_us``, one in-process ``cli.main(["table", "--alpha",
"0.05", "--format", f])`` with stdout sent to a StringIO; and
``table_grid_us``, the 55 Newton solves of the default table grid at a new
level per grid, drawn log-uniform in (0.001, 0.4) as ``tables`` draws it.
``cli``: CLI_REPEATS rounds of each CLI_COMMANDS process's wall time in ms,
import included.  Per side (``parent``, ``checkout``) a section holds every
metric's runs, median, quartiles and minimum (for a time, the run least
disturbed by other load); under ``change`` the ratios of the medians and of
the minima, the rounds the checkout won (directions from BENCHMARK.json,
lower for times), whether the medians differ by more than the parent's
interquartile range, and a ``verdict``: "better" or "worse" when at least
9 in 10 pairs and the median gap beyond that range agree, else
"unresolved".  A workload side also lists its failed and attempted ops.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# What a perfbench run reads from the checkout; layers and cli read src.
MEASURED_PATHS = ("src", "perfbench", "tests/table_data.py", "BENCHMARK.json")

LAYER_REPEATS = 7
LAYER_SCRIPT = """
import contextlib, io, itertools, json, math, resource, statistics, time
import numpy as np
from kuiper_hoe import cli
from kuiper_hoe.gof import EdfScheme, vn_from_probs
from kuiper_hoe.montecarlo import SimConfig, simulate_type1
from kuiper_hoe.series import cdf_kn, utp
from kuiper_hoe.solver import (ConvergenceError, FixedPointDomainError,
                               kuiper_pair_solver, kuiper_utq)
grid = np.linspace(0.3, 3.5, 200).tolist()
keys = [(n, k) for n in (6, 10, 50, 1000) for k in range(1, 6)]
fresh = itertools.count(10_000)
def fresh_key(c, _, k):
    # gof's series cost per op: a capacity no call has used before, so the
    # expansion is built anew, its critical value and the full tail at c
    n = next(fresh)
    kuiper_utq(0.05, n, k)
    utp(c, n, k)
def per_key_call(f):
    start = time.perf_counter()
    for n, k in keys:
        for c in grid:
            f(c, n, k)
    return (time.perf_counter() - start) / (len(keys) * len(grid))
def per_call(f, calls):
    start = time.perf_counter()
    for _ in range(calls):
        f()
    return (time.perf_counter() - start) / calls
# pair_us: one solve per grid point, so 200 passes over the keys
passes = {name: lambda f=f: per_key_call(f) for name, f in {
    "cdf_kn_us": cdf_kn,
    "utp_truncated_us": lambda c, n, k: utp(c, n, k, truncated=True),
    "pair_us": lambda c, n, k: kuiper_pair_solver(0.05, n, k),
    "fresh_key_us": fresh_key}.items()}
# the kernel on one seeded sorted (1024, n) block at each of calibrate's n
for n in (10, 50, 180):
    block = np.sort(np.random.default_rng(n).random((1024, n)), axis=1)
    passes[f"vn_block_{n}_us"] = lambda q=block: per_call(
        lambda: vn_from_probs(q, EdfScheme.SCHEME0), 200)
# calibrate's own cycle: 2000-replication simulations at n = 10, 50, 180 in
# turn, a fresh seed each, and the minor page faults the cycles take
seeds = itertools.count()
cycle_faults = []
def sim_cycle(cycles=10):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    elapsed = per_call(lambda: [simulate_type1(SimConfig(
        n=n, n_rep=2000, seed=next(seeds), comparators=("ks", "stephens")))
        for n in (10, 50, 180)], cycles)
    cycle_faults.append(
        (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / cycles)
    return elapsed
passes["sim_cycle_us"] = sim_cycle
# one in-process table command per format, its stdout sent to a StringIO
def table_us(fmt):
    argv = ["table", "--alpha", "0.05", "--format", fmt]
    with contextlib.redirect_stdout(io.StringIO()):
        return per_call(lambda: cli.main(argv), 50)
for fmt in ("table", "csv", "json"):
    passes[f"table_{fmt}_us"] = lambda fmt=fmt: table_us(fmt)
# the 55 Newton solves of a default table, each grid at a new level drawn
# log-uniform in (0.001, 0.4) as the tables workload draws it, so that the
# unreachable cells a table prints as x are timed too
table_grid = [(int(n), k) for n in cli.DEFAULT_TABLE_N.split(",")
              for k in range(1, 6)]
levels = np.random.default_rng(0)
def table_grid_solves():
    alpha = float(math.exp(levels.uniform(math.log(0.001), math.log(0.4))))
    for n, k in table_grid:
        try:
            kuiper_pair_solver(alpha, n, k)
        except (FixedPointDomainError, ConvergenceError):
            pass  # a cell the table prints as x
passes["table_grid_us"] = lambda: per_call(table_grid_solves, 50)
timed = {name: statistics.median([run() for _ in range(%d + 1)][1:]) * 1e6
         for name, run in passes.items()}
print(json.dumps({**timed, "sim_cycle_minflt": statistics.median(
    cycle_faults[1:])}))
""" % LAYER_REPEATS

CLI_REPEATS = 9
# Timed CLI commands; {sample} is the generated 200-point data file.
CLI_COMMANDS = {
    "pair": "pair --alpha 0.05 --n 10 --k 5",
    "table": "table --alpha 0.05",
    "test": "test --file {sample} --dist normal(0,1)",
    "simulate": "simulate --n 10 --nrep 1000",
}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def copy_tree(source: Path, dest: Path) -> Path:
    """DEST holding MEASURED_PATHS of the tree SOURCE, without bytecode
    caches, so that both sides run from fresh copies of the same kind."""
    for name in MEASURED_PATHS:
        if (source / name).is_dir():
            shutil.copytree(source / name, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source / name, dest / name)
    return dest


def run_python(tree: Path, argv: list) -> str:
    """stdout of ``python ARGV`` run in TREE, importing the tree's src/."""
    done = subprocess.run([sys.executable, *argv], cwd=tree,
                          env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    return done.stdout


def alternate(trees: dict, rounds: int, measure) -> dict:
    """Per side the list of measure(tree, round) over the rounds; the side
    that runs first swaps each round, starting with the first key of trees."""
    sides = list(trees)
    runs = {side: [] for side in sides}
    for r in range(rounds):
        for side in (sides if r % 2 == 0 else sides[::-1]):
            runs[side].append(measure(trees[side], r))
    return runs


def summary(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "runs": values}


def compare(parent: dict, checkout: dict, direction: str) -> dict:
    """How the checkout's summary of one metric stands to the parent's.

    ``verdict`` is "better" when at least 9 in 10 pairs are better and the
    median moved the better way by more than the parent's interquartile
    range, "worse" on the mirror condition (a tied pair counts for neither
    side), and "unresolved" otherwise.  A ratio over a zero parent value is
    None."""
    old, new = parent["runs"], checkout["runs"]
    sign = -1.0 if direction == "lower" else 1.0
    wins = sum(sign * (b - a) > 0.0 for a, b in zip(old, new))
    losses = sum(sign * (b - a) < 0.0 for a, b in zip(old, new))
    gap = sign * (checkout["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    verdict = "unresolved"
    if 10 * wins >= 9 * len(old) and gap > iqr:
        verdict = "better"
    elif 10 * losses >= 9 * len(old) and -gap > iqr:
        verdict = "worse"
    def ratio(key):  # None over a zero parent value, such as 0 faults
        return checkout[key] / parent[key] if parent[key] else None
    return {"median_ratio": ratio("median"), "min_ratio": ratio("min"),
            "pairs_better": wins, "pairs": len(old),
            "median_gap_exceeds_parent_iqr": abs(gap) > iqr,
            "verdict": verdict}


def report(runs: dict, directions: dict) -> dict:
    """{parent, checkout, change}: each side's summary of every metric in
    directions (name -> "lower" or "higher"), and the change."""
    out = {side: {name: summary([run[name] for run in side_runs])
                  for name in directions}
           for side, side_runs in runs.items()}
    out["change"] = {name: compare(out["parent"][name],
                                   out["checkout"][name], direction)
                     for name, direction in directions.items()}
    return out


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its failed and attempted ops and metric values."""
    out = json.loads(run_python(tree, [
        "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0"]).splitlines()[-1])
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    print(workload, seed, tree, metrics, file=sys.stderr, flush=True)
    return {"failed": out["failed"], "attempted": out["attempted"], **metrics}


def time_cli(tree: Path, sample: Path) -> dict:
    """Wall time in ms of each CLI_COMMANDS process, import included."""
    walls = {}
    for name, command in CLI_COMMANDS.items():
        start = time.perf_counter()
        run_python(tree, ["-m", "kuiper_hoe.cli", *command.format(sample=sample).split()])
        walls[name] = (time.perf_counter() - start) * 1e3
    return walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--seeds", required=True, help="comma list of seeds")
    parser.add_argument("--seconds", type=float, default=None,
                        help="op time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--workloads", default=None,
                        help="comma list (default: all in BENCHMARK.json)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]

    results = {}
    with tempfile.TemporaryDirectory(prefix="kuiper-bench-") as tmp:
        # the same files under paths of the same length on both sides
        trees = {"parent": Path(tmp) / "parent",
                 "checkout": copy_tree(ROOT, Path(tmp) / "change")}
        git("archive", "--format=tar", "-o", f"{tmp}/parent.tar", args.parent,
            *MEASURED_PATHS)
        with tarfile.open(f"{tmp}/parent.tar") as archive:
            archive.extractall(trees["parent"])
        for workload in workloads:
            runs = alternate(trees, len(seeds), lambda tree, r: perfbench(
                tree, workload, seeds[r], seconds))
            results[workload] = report(runs, better)
            for side, side_runs in runs.items():
                for key in ("failed", "attempted"):
                    results[workload][side][key] = [run[key] for run in side_runs]
        timed = alternate(trees, len(seeds), lambda tree, _: json.loads(
            run_python(tree, ["-c", LAYER_SCRIPT])))
        layers = report(timed, dict.fromkeys(timed["parent"][0], "lower"))
        sample = Path(tmp) / "sample.txt"
        sample.write_text("".join(f"{x!r}\n" for x in np.random.default_rng(
            0).normal(size=200).tolist()))
        cli = report(alternate(trees, CLI_REPEATS,
                               lambda tree, _: time_cli(tree, sample)),
                     dict.fromkeys(CLI_COMMANDS, "lower"))

    payload = {
        "command": "python scripts/bench.py " + " ".join(
            sys.argv[1:] if argv is None else argv),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "parent_rev": git("rev-parse", args.parent),
        "checkout_rev": git("rev-parse", "HEAD"),
        "checkout_dirty": bool(git("status", "--porcelain", "--",
                                   *MEASURED_PATHS)),
        "seconds": seconds, "seeds": seeds,
        "workloads": results, "layers": layers, "cli": cli,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
