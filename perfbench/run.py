"""Benchmark for kuiper_hoe: one workload, untraced or traced.

    python3 perfbench/run.py --workload {calibrate,tables,gof,cdf_curve}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy.  Load comes
from this one process with no threads, as a closed loop: one caller, and
the next op starts when the previous one returns.

With ``--trace 0`` the run measures set-up (fresh interpreters importing
the library) and then runs ops for S seconds of op time, checking every
output; it prints the end-to-end metrics.  Their times are normalised to a
nominal machine speed by the probe in machine.py; the raw wall-clock values
are printed next to them as ``raw_*``.  ``op_tail_ms`` is the highest
percentile with 10 samples beyond it (98 for a block of 500 ops) in each
block of 500 consecutive ops, and the median over blocks.  With ``--trace 1`` it runs ops
untraced for S/2 seconds, then a fixed number of ops with every public
function of the library wrapped in a span, writes the spans to
``.perfbench-out/`` and prints the per-layer metrics.  Every metric is
printed as ``name value unit`` and the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import machine

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_RUNS = 7
TAIL_BEYOND = 10
TAIL_BLOCK = 500

# Ops per second of --seconds in the traced phase.  Fixed, so that a traced
# run does the same work on every commit and its counts compare directly.
TRACED_OPS_PER_SECOND = {"calibrate": 2, "tables": 60, "gof": 150, "cdf_curve": 20}

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_library():
    """kuiper_hoe and its test reference tables, from this checkout."""
    package = SRC / "kuiper_hoe" / "__init__.py"
    table_file = ROOT / "tests" / "table_data.py"
    if not package.is_file() or not table_file.is_file():
        raise BenchError(f"no kuiper_hoe sources under {ROOT}: need "
                         "src/kuiper_hoe and tests/table_data.py")
    sys.path.insert(0, str(SRC))
    import kuiper_hoe
    import kuiper_hoe.cli

    if Path(kuiper_hoe.__file__).resolve() != package.resolve():
        raise BenchError(f"kuiper_hoe imported from {kuiper_hoe.__file__}, "
                         f"not from {SRC}")
    spec = importlib.util.spec_from_file_location("kuiper_table_data", table_file)
    tables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tables)
    return kuiper_hoe, tables


def measure_setup(runs: int = SETUP_RUNS) -> tuple[float, float]:
    """Median time from starting a fresh interpreter to having the library
    and its CLI imported, read from the shared monotonic clock: (normalised,
    raw) seconds.  The child probes machine speed itself, after the import,
    because it may run on another core than this process."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "import kuiper_hoe, kuiper_hoe.cli; t = time.monotonic_ns(); "
            "sys.path.insert(0, sys.argv[2]); import machine; "
            "print(t, machine.speed_sample(11))")
    raw, scaled = [], []
    for _ in range(runs):
        t0 = time.monotonic_ns()
        done = subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)],
                              cwd=ROOT, capture_output=True, text=True, timeout=60,
                              check=True)
        t_imported, speed = done.stdout.split()
        raw.append((int(t_imported) - t0) / 1e9)
        scaled.append(raw[-1] * machine.NOMINAL_S / float(speed))
    return statistics.median(scaled), statistics.median(raw)


class Loop:
    """Closed-loop op runner: times each op, probes machine speed between
    ops, and checks each output outside the timing."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.inputs = workload.inputs()
        # Arrays, not lists, so that memory does not grow with the op count.
        self.latencies = array("d")
        self.probes = machine.Probes()
        self.attempted = 0
        self.failed = 0

    def one(self, call, counters=None) -> None:
        inp = next(self.inputs)
        self.probes.maybe_probe(len(self.latencies))
        clock = time.perf_counter
        t0 = clock()
        try:
            out = call(inp)
        except Exception as exc:  # judged by the workload's check
            out = exc
        t1 = clock()
        self.latencies.append(t1 - t0)
        self.probes.after_op(t1 - t0)
        self.attempted += 1
        if not self.workload.check(inp, out):
            self.failed += 1
        if counters is not None and not isinstance(out, BaseException):
            for name, value in self.workload.counters(inp, out).items():
                counters.add(name, value)

    def run(self, call, seconds: float) -> None:
        """Run ops until their summed time reaches ``seconds``."""
        spent = 0.0
        while spent < seconds:
            self.one(call)
            spent += self.latencies[-1]

    def normalised(self) -> np.ndarray:
        """Op times in seconds at the probe's nominal machine speed."""
        return np.asarray(self.latencies) * self.probes.scales(len(self.latencies))


def tail(latencies) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples
    beyond it, or the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def blocked_tail(latencies) -> tuple[float, float, int]:
    """(percentile, value, blocks): the tail of each consecutive block of
    TAIL_BLOCK ops, and the median over blocks; one block for shorter runs.

    A burst of host interference then moves one block's tail, not the
    run's, and the percentile (98 for full blocks) does not depend on how
    many ops the run completed."""
    blocks = max(1, len(latencies) // TAIL_BLOCK)
    size = TAIL_BLOCK if blocks > 1 else len(latencies)
    tails = [tail(latencies[i * size:(i + 1) * size]) for i in range(blocks)]
    return tails[0][0], float(np.median([value for _, value in tails])), blocks


def latency_metrics(latencies, prefix: str = "") -> tuple[dict, tuple[float, int]]:
    pct, tail_s, blocks = blocked_tail(latencies)
    return {f"{prefix}ops_per_s": len(latencies) / float(np.sum(latencies)),
            f"{prefix}op_p50_ms": float(np.median(latencies)) * 1e3,
            f"{prefix}op_tail_ms": tail_s * 1e3}, (pct, blocks)


def run_untraced(workload, seconds: float) -> dict:
    setup_s, raw_setup_s = measure_setup()
    loop = Loop(workload)
    loop.run(workload.run, seconds)
    loop.failed += workload.finish()
    timing, (pct, blocks) = latency_metrics(loop.normalised())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"setup_s": setup_s, **timing, "peak_rss_mb": peak_kb / 1024.0}
    raw, _ = latency_metrics(loop.latencies, "raw_")
    info = {"raw_setup_s": raw_setup_s, **raw,
            "machine_slowdown": float(np.median(loop.probes.times)) / machine.NOMINAL_S,
            "op_tail_percentile": pct, "op_tail_blocks": blocks, "ops": loop.attempted,
            "error_ratio": loop.failed / loop.attempted}
    return {"loop": loop, "metrics": metrics, "units": END_TO_END_UNITS, "info": info}


def run_traced(workload, seconds: float, span_file: Path | None = None) -> dict:
    import tracing

    loop = Loop(workload)
    loop.run(workload.run, seconds / 2.0)
    first = len(loop.latencies)
    traced_ops = max(1, round(TRACED_OPS_PER_SECOND[workload.name] * seconds / 2.0))
    with tracing.Tracer(workload.lib.__name__) as tracer:
        call = tracer.wrap("op", workload.run)
        for _ in range(traced_ops):
            loop.one(call, tracer)
    loop.failed += workload.finish()
    spans = tracer.arrays()
    if span_file is not None:
        tracer.write(span_file)
    metrics, units = layer_metrics(spans, tracer.counts, workload.stats())
    norm = loop.normalised()
    untraced, traced = norm[:first], norm[first:]
    metrics["trace.overhead_ratio"] = float((traced.size / traced.sum())
                                            / (untraced.size / untraced.sum()))
    units["trace.overhead_ratio"] = "1"
    info = {"ops": loop.attempted, "traced_ops": traced.size, "spans": len(spans["start"]),
            "error_ratio": loop.failed / loop.attempted}
    return {"loop": loop, "metrics": metrics, "units": units, "info": info}


def layer_metrics(spans: dict, counts, stats: dict) -> tuple[dict, dict]:
    import tracing

    summary = tracing.span_summary(spans)

    def get(span: str, field: str):
        return summary.get(span, {}).get(field, 0)

    metrics, units = {}, {}

    def put(name, value, unit):
        metrics[name] = value
        units[name] = unit

    for span in ("series.cdf_kn", "series.b_series", "series.fun_aj", "solver.pair",
                 "gof.vn_from_probs", "baselines.ks_utp"):
        put(f"{span}.calls", get(span, "calls"), "count")
        put(f"{span}.self_ms", get(span, "self_ms"), "ms")
    put("series.utp.calls", get("series.utp", "calls"), "count")
    put("solver.pair.iterations", counts.get("solver.pair.iterations", 0), "count")
    put("solver.pair.domain_errors", tracing.domain_errors(spans, "solver.pair"), "count")
    put("solver.fallback.calls", get("solver.fallback", "calls"), "count")
    put("solver.fallback.useful_ratio", tracing.fallback_useful_ratio(spans), "1")
    for span in ("gof.sampleset", "gof.compute_vn", "gof.kuiper_test",
                 "montecarlo.simulate", "cli.main"):
        put(f"{span}.self_ms", get(span, "self_ms"), "ms")
    put("gof.cdf_evals", counts.get("gof.cdf_evals", 0), "count")
    put("baselines.modified_quantile.calls", get("baselines.modified_quantile", "calls"),
        "count")
    put("montecarlo.reps", counts.get("montecarlo.reps", 0), "count")
    put("cli.output_bytes", counts.get("cli.output_bytes", 0), "B")
    put("gof.key_repeat_ratio", stats.get("gof.key_repeat_ratio", 0.0), "1")
    return metrics, units


def report(result: dict, notes: list[str], out=None) -> dict:
    """Print every metric as ``name value unit``, then the JSON result line."""
    out = out or sys.stdout
    loop = result["loop"]
    for name, value in result["metrics"].items():
        print(f"{name:<36} {value!r} {result['units'][name]}", file=out)
    for name, value in result["info"].items():
        print(f"{name:<36} {value!r}", file=out)
    for note in notes:
        print(f"note: {note}", file=out)
    line = {"correct": loop.failed == 0, "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {name: {"value": value, "unit": result["units"][name]}
                        for name, value in result["metrics"].items()}}
    print(json.dumps(line), file=out)
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lib, tables = load_library()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](lib, args.seed, tables)
    # Objects alive after set-up (imports, reference tables) are left out of
    # garbage collection, so collections during ops scan what ops allocate.
    gc.collect()
    gc.freeze()
    if args.trace:
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        result = run_traced(workload, args.seconds, span_file)
        result["info"]["span_file"] = str(span_file.relative_to(ROOT))
    else:
        result = run_untraced(workload, args.seconds)
    notes = list(workload.notes)
    notes += [f"{k} = {v!r}" for k, v in workload.stats().items()]
    report(result, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
