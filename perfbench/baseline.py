"""Run every workload on several seeds and record medians and spreads.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Each workload runs ``--runs`` times untraced, with seeds first-seed,
first-seed + 1, ..., and once traced.  For each end-to-end metric the record
holds the values, their median and their spread: the distance between the
first and third quartiles as a share of the median.  Run from the root of a
source checkout, like run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, other printed values) of one benchmark run."""
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=True)
    lines = done.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 2 and not line.startswith("note:"):
            try:
                printed[parts[0]] = float(parts[1])
            except ValueError:
                pass
        elif line.startswith("note:") and " = " in line:
            name, value = line[len("note: "):].split(" = ")
            printed[name] = float(value)
    return json.loads(lines[-1]), printed


def summary(values: list[float], keep_values: bool = True) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    entry = {"median": median, "q1": q1, "q3": q3,
             "spread": (q3 - q1) / median if median else 0.0}
    if keep_values:
        entry["values"] = values
    return entry


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="limit to this workload (repeatable)")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    import workloads

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    names = args.workload or list(why)
    record = {"environment": versions(), "run_seconds": spec["run_seconds"],
              "runs": args.runs, "workloads": {}}
    for name in names:
        results, printed = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            line, other = run_once(name, seed, spec["run_seconds"], 0)
            results.append(line)
            printed.append(other)
            print(f"{name} seed {seed}: correct={line['correct']} "
                  f"attempted={line['attempted']} failed={line['failed']}",
                  file=sys.stderr, flush=True)
        traced, traced_printed = run_once(name, args.first_seed, spec["run_seconds"], 1)
        end_to_end = {m["name"]: dict(unit=m["unit"], bound=m["bound"],
                                      **summary([r["metrics"][m["name"]]["value"]
                                                 for r in results]))
                      for m in spec["end_to_end"]}
        # Raw wall-clock values, the machine-speed probe and the other
        # printed values, with their spreads over the runs.
        other = {key: summary([p[key] for p in printed], keep_values=False)
                 for key in printed[0] if all(key in p for p in printed)}
        record["workloads"][name] = {
            "op": workloads.WORKLOADS[name].op,
            "why": why[name],
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": end_to_end,
            "printed": other,
            "per_layer": {key: value["value"] for key, value in traced["metrics"].items()},
            "per_layer_run": {key: traced_printed[key]
                              for key in ("ops", "traced_ops", "spans")},
        }
        for metric, entry in end_to_end.items():
            print(f"{name:<10} {metric:<12} median {entry['median']:.6g} "
                  f"spread {entry['spread']:.4f} bound {entry['bound']}", file=sys.stderr)
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
