#!/usr/bin/env python3
"""Before/after benchmark: a parent revision against the checkout.

    python scripts/bench.py --parent REV --seeds 601,602,603 --out BENCH_4.json

Extracts the committed files of REV into a temporary directory (git
archive), then runs ``perfbench/run.py --trace 0`` on both trees for each
workload and seed.  The two runs of a pair use the same seed, back to
back; which tree runs first alternates from pair to pair, so that a drift
in machine speed does not favour one side.  The temporary tree is removed
afterwards.  Each run lasts --seconds of op time, by default the
benchmark's own run_seconds.

Per layer, the series is timed once per seed in a fresh interpreter with
PYTHONPATH at each tree's ``src/``, again alternating which tree runs
first: the median microseconds per call of ``cdf_kn`` and of
``utp(truncated=True)`` over 200 c in [0.3, 3.5] x the 20 (n, k) of the
``cdf_curve`` workload, over LAYER_REPEATS passes after a warm-up pass.

End to end, each CLI command of CLI_COMMANDS runs CLI_REPEATS times per
tree as ``python -m kuiper_hoe.cli ...`` in a fresh process, import
included, alternating which tree runs first; ``test`` reads a generated
200-point file.  The wall times are in milliseconds.

The JSON written to --out holds the Python and numpy versions, nproc,
every run's end-to-end metrics, their median, quartiles and minimum per
tree (for a time, the minimum is the run least disturbed by other load),
and per metric the ratios of the medians and of the minima, the number of
pairs in which the checkout was better (directions from BENCHMARK.json)
and whether the medians differ by more than the parent's interquartile
range; the same for the per-layer times under ``layers`` and the CLI wall
times under ``cli``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

LAYER_REPEATS = 7
LAYER_SCRIPT = """
import json, statistics, time
import numpy as np
from kuiper_hoe.series import cdf_kn, utp
grid = np.linspace(0.3, 3.5, 200).tolist()
keys = [(n, k) for n in (6, 10, 50, 1000) for k in range(1, 6)]
calls = {"cdf_kn_us": cdf_kn,
         "utp_truncated_us": lambda c, n, k: utp(c, n, k, truncated=True)}
out = {}
for name, f in calls.items():
    passes = []
    for _ in range(%d + 1):
        start = time.perf_counter()
        for n, k in keys:
            for c in grid:
                f(c, n, k)
        passes.append((time.perf_counter() - start) / (len(keys) * len(grid)))
    out[name] = statistics.median(passes[1:]) * 1e6
print(json.dumps(out))
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


def extract(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its final JSON line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def time_layers(tree: Path) -> dict:
    """Median microseconds per series call, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-c", LAYER_SCRIPT], cwd=tree,
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"layer timing in {tree} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout)


def time_cli(tree: Path, argv: list) -> float:
    """Wall time in ms of one CLI process, import included."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "kuiper_hoe.cli", *argv],
                          cwd=tree, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode not in (0, 1):  # 1: the test rejected
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    return elapsed * 1e3


def summary(values: list) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "runs": values}


def compare(parent: dict, checkout: dict, direction: str) -> dict:
    """How the checkout's summary of one metric stands to the parent's."""
    old, new = parent["runs"], checkout["runs"]
    wins = sum((b < a) if direction == "lower" else (b > a)
               for a, b in zip(old, new))
    return {"median_ratio": checkout["median"] / parent["median"],
            "min_ratio": checkout["min"] / parent["min"],
            "pairs_better": wins, "pairs": len(old),
            "median_gap_exceeds_parent_iqr":
                abs(checkout["median"] - parent["median"])
                > parent["q3"] - parent["q1"]}


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
    sides = ("parent", "checkout")

    results = {}
    with tempfile.TemporaryDirectory(prefix="kuiper-bench-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "checkout": ROOT}
        extract(args.parent, trees["parent"])
        pair = 0
        for workload in workloads:
            runs = {side: [] for side in sides}
            for seed in seeds:
                order = sides if pair % 2 == 0 else sides[::-1]
                for side in order:
                    runs[side].append(run_once(trees[side], workload, seed,
                                               seconds))
                    print(f"{workload} seed {seed} {side}: " + " ".join(
                        f"{k}={v['value']:.4g}"
                        for k, v in runs[side][-1]["metrics"].items()),
                        file=sys.stderr, flush=True)
                pair += 1
            entry = {}
            for side in sides:
                entry[side] = {
                    name: summary([r["metrics"][name]["value"]
                                   for r in runs[side]])
                    for name in better}
                entry[side]["failed"] = [r["failed"] for r in runs[side]]
                entry[side]["attempted"] = [r["attempted"] for r in runs[side]]
            entry["change"] = {
                name: compare(entry["parent"][name], entry["checkout"][name],
                              direction)
                for name, direction in better.items()}
            results[workload] = entry
        timed = {side: [] for side in sides}
        for pair in range(len(seeds)):
            for side in (sides if pair % 2 == 0 else sides[::-1]):
                timed[side].append(time_layers(trees[side]))
        layers = {side: {name: summary([t[name] for t in timed[side]])
                         for name in timed[side][0]}
                  for side in sides}
        layers["change"] = {
            name: compare(layers["parent"][name], layers["checkout"][name],
                          "lower")
            for name in layers["parent"]}
        sample = Path(tmp) / "sample.txt"
        values = np.random.default_rng(0).normal(size=200).tolist()
        sample.write_text("".join(f"{x!r}\n" for x in values))
        walls = {name: {side: [] for side in sides} for name in CLI_COMMANDS}
        for repeat in range(CLI_REPEATS):
            for side in (sides if repeat % 2 == 0 else sides[::-1]):
                for name, command in CLI_COMMANDS.items():
                    walls[name][side].append(time_cli(
                        trees[side], command.format(sample=sample).split()))
        cli = {}
        for name, by_side in walls.items():
            cli[name] = {side: summary(by_side[side]) for side in sides}
            cli[name]["change"] = compare(cli[name]["parent"],
                                          cli[name]["checkout"], "lower")
            print(f"cli {name}: " + " ".join(
                f"{side}={cli[name][side]['median']:.1f} ms" for side in sides),
                file=sys.stderr, flush=True)

    payload = {
        "command": "python scripts/bench.py " + " ".join(
            sys.argv[1:] if argv is None else argv),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "parent_rev": git("rev-parse", args.parent),
        "checkout_rev": git("rev-parse", "HEAD"),
        "checkout_src_dirty": bool(git("status", "--porcelain", "--", "src")),
        "seconds": seconds,
        "seeds": seeds,
        "workloads": results,
        "layers": layers,
        "cli": cli,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
