#!/usr/bin/env python3
"""Bit-identity sweep of the solver, the series and the test statistic.

    PYTHONPATH=src python scripts/solver_sweep.py

Solves every cell of both methods x 310 alphas (log-spaced in
[5e-4, 0.9995]) x 19 capacities x k = 1..5, 58,900 solves, and evaluates
``utp(truncated=True)`` and ``cdf_kn`` at 400 points of c in [0.3, 3.5]
for n in {6, 10, 50, 1000} x k = 1..5, and builds ``Probability`` directly
from NaN, +-0.0, +-inf and values at and past the clamp edges.  The
series-wide part evaluates ``b_series`` for i = 0..5, ``cdf_kn`` and the
full ``utp`` at 2,400 points of c in [0.05, 12] for
n in {1, 2, 3, 6, 7, 10, 50, 1000, 10^6} x k = 1..5;
on this grid the j sum stops after every number of terms from 0 to 10.
The gof part runs ``compute_vn`` on one seeded N(0.2, 1.1^2) sample for
each of 149 capacities (200 points log-spaced over 1..5000, rounded,
repeats dropped), under all six schemes,
against ``normal_cdf`` and against a CDF that takes Python floats only.
The wrapper part calls ``kuiper_utq``, ``kuiper_ltq`` and ``kuiper_inv_cdf``
at the guard levels 0, 1e-5, 1e-4 and the float after it, at 0.05, 0.5,
0.95, 0.9999 and 1, and at invalid levels, for five (n, k); hashes the
``edf_probs`` positions for n = 1..2000 under the five single schemes; and
runs ``simulate_type1`` with comparators ks and stephens under all six
schemes at n in {1, 2, 10, 180} for three seeds, each with the orders that
have a quantile there.  The cli part runs a fixed list of ``cli.main``
calls (in text format the README examples, ``table`` at the seven
reference levels and at 0.001, two simulations, ``test`` on a seeded file,
and calls that exit 2 or 3; in json and csv format ``pair``, ``cdf``,
``table``, ``test`` and a simulation with comparators).

Each part yields its records as (outcome, count, text): ``main`` hashes
the texts of each part, adds up the counts, and prints one line per part
with its total and sha256; the solver line also counts each outcome.  Two
revisions that print the same lines give the same numbers on this grid.
"""

import collections
import contextlib
import hashlib
import io
import math
import os
import tempfile
import warnings

import numpy as np

from kuiper_hoe.cli import main as cli_main
from kuiper_hoe.gof import EdfScheme, SampleSet, compute_vn, edf_probs
from kuiper_hoe.montecarlo import SimConfig, normal_cdf, simulate_type1
from kuiper_hoe.series import Probability, b_series, cdf_kn, utp
from kuiper_hoe.solver import (kuiper_inv_cdf, kuiper_ltq, kuiper_pair_solver,
                               kuiper_utq)

METHODS = ("newton", "direct")
ALPHAS = np.exp(np.linspace(math.log(5e-4), math.log(0.9995), 310))
CAPACITIES = (*range(1, 11), 12, 15, 20, 30, 50, 100, 10**3, 10**4, 10**6)
ORDERS = range(1, 6)
SERIES_C = np.linspace(0.3, 3.5, 400)
SERIES_CAPACITIES = (6, 10, 50, 1000)
# Raw values for direct Probability constructions: the clamp edges that the
# series grids never reach.
RAW_PROBABILITIES = (math.nan, -0.0, 0.0, 5e-324, 0.5, 1.0,
                     math.nextafter(1.0, 2.0), 2.0, -1e-300, math.inf, -math.inf)
WIDE_C = np.linspace(0.05, 12.0, 2400)
WIDE_CAPACITIES = (1, 2, 3, 6, 7, 10, 50, 1000, 10**6)
GOF_CAPACITIES = sorted(set(np.rint(np.logspace(0.0, math.log10(5000), 200))
                            .astype(int).tolist()))
LEVELS = (0.0, 1e-5, 1e-4, math.nextafter(1e-4, 1.0), 0.05, 0.5, 0.95, 0.9999,
          1.0, -1e-12, 1.5, math.nan, math.inf, -math.inf)
QUANTILE_KEYS = ((1, 1), (6, 3), (10, 5), (100, 4), (10**6, 2))
# (n, alpha, orders).  Order 1 is left out at n = 1 and 2 although it has a
# quantile at these levels; the grid is kept so that the wrappers digest
# still compares with earlier revisions.
SIM_CASES = ((1, 0.2, (2, 3, 4, 5)), (2, 0.05, (2, 3, 4, 5)),
             (10, 0.05, tuple(ORDERS)), (180, 0.05, tuple(ORDERS)))
SIM_SEEDS = (0, 7, 2024)
# CLI calls, text format but for the last ten; {tmp} is the directory of the
# files CLI_FILES names.
CLI_CALLS = (
    "pair --alpha 0.01 --n 10 --k 1",
    "utq --alpha 0.40 --n 6 --k 3",
    "ltq --alpha 0.95 --n 10 --k 1",
    "invcdf --x 0.95 --n 10 --k 1",
    "cdf --v 0.5080 --n 10 --k 1",
    *(f"table --alpha {alpha}" for alpha in
      ("0.01", "0.05", "0.10", "0.15", "0.20", "0.30", "0.40", "0.001")),
    "test --file {tmp}/data.txt --dist normal(0,1) --alpha 0.05 --k 5",
    "test --file {tmp}/data.csv --csv-column 1 --dist normal(0,1)",
    "simulate --n 10 --k 1,5 --nrep 10000 --seed 42 --comparators ks,stephens",
    "simulate --n 20 --nrep 500 --seed 3 --scheme stephens_mixed",
    "pair --alpha 0.0026 --n 5 --k 1 --method direct",
    "utq --alpha 1.5 --n 10 --k 1",
    "cdf --v 0.5 --n 0 --k 1",
    "table --alpha 0.10 --n 0,10",
    "test --file {tmp}/empty.csv --csv-column 1 --dist normal(0,1)",
    "test --file {tmp}/data.csv --csv-column score --dist normal(0,1)",
    "test --file {tmp}/data.csv --csv-column 2 --dist normal(0,1)",
    "test --file {tmp}/text.csv --csv-column 1 --dist normal(0,1)",
    "test --file {tmp}/header.csv --csv-column 1 --dist normal(0,1)",
    *(f"{call} --format {fmt}" for fmt in ("json", "csv") for call in (
        "pair --alpha 0.01 --n 10 --k 1",
        "cdf --v 0.5080 --n 10 --k 1",
        "table --alpha 0.05",
        "test --file {tmp}/data.txt --dist normal(0,1) --alpha 0.05 --k 5",
        "simulate --n 10 --k 1,5 --nrep 10000 --seed 42 --comparators ks,stephens",
    )),
)
CLI_SAMPLE = np.random.default_rng(0).normal(0.2, 1.1, 200).tolist()
CLI_FILES = {
    "data.txt": "".join(f"{x!r}\n" for x in CLI_SAMPLE),
    "data.csv": "id,value\n" + "".join(f"{i},{x!r}\n"
                                       for i, x in enumerate(CLI_SAMPLE)),
    "empty.csv": "",
    "text.csv": "id,value\n1,0.5\n2,abc\n",
    "header.csv": "id,value\n",
}


def scalar_only_cdf(x: float) -> float:
    """Standard normal CDF through math.erf; refuses arrays."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def solver_part():
    for method in METHODS:
        for alpha in ALPHAS.tolist():
            for n in CAPACITIES:
                for k in ORDERS:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        try:
                            pair = kuiper_pair_solver(alpha, n, k, method)
                        except Exception as exc:
                            name = type(exc).__name__
                            record = (f"{name} {exc} {getattr(exc, 'argument', None)} "
                                      f"{getattr(exc, 'steps', None)}")
                        else:
                            name = "ok"
                            record = (f"{pair.c.hex()} {pair.iterations} "
                                      f"{pair.residual.hex()}")
                    for w in caught:
                        record += f"\n{w.category.__name__}: {w.message}"
                    yield name, 1, record + "\n"


def probability_record(p) -> tuple[None, int, str]:
    return None, 1, f"{p.raw.hex()} {float(p).hex()} {p.clamped} {p.warning}\n"


def series_part():
    for n in SERIES_CAPACITIES:
        for k in ORDERS:
            for c in SERIES_C.tolist():
                yield probability_record(utp(c, n, k, truncated=True))
                yield probability_record(cdf_kn(c, n, k))
    for raw in RAW_PROBABILITIES:
        yield probability_record(Probability(raw))


def series_wide_part():
    for i in range(6):
        for c in WIDE_C.tolist():
            yield None, 1, b_series(i, c).hex() + "\n"
    for n in WIDE_CAPACITIES:
        for k in ORDERS:
            for c in WIDE_C.tolist():
                yield probability_record(cdf_kn(c, n, k))
                yield probability_record(utp(c, n, k))


def gof_part():
    for n in GOF_CAPACITIES:
        sample = SampleSet(np.random.default_rng(n).normal(0.2, 1.1, n).tolist())
        for scheme in EdfScheme:
            for cdf in (normal_cdf, scalar_only_cdf):
                stats = compute_vn(sample, cdf, scheme)
                yield None, len(stats), " ".join(v.hex() for v in stats) + "\n"


def call_record(call) -> tuple[None, int, str]:
    """The repr of what call() returns, or the type and message of what it
    raises."""
    try:
        text = repr(call())
    except Exception as exc:
        text = f"{type(exc).__name__} {exc}"
    return None, 1, text + "\n"


def wrapper_part():
    for n, k in QUANTILE_KEYS:
        for level in LEVELS:
            for f in (kuiper_utq, kuiper_ltq, kuiper_inv_cdf):
                yield call_record(lambda: f(level, n, k).hex())
    for n in range(1, 2001):
        for scheme in EdfScheme:
            if scheme is not EdfScheme.STEPHENS_MIXED:
                yield None, n, " ".join(map(float.hex, edf_probs(n, scheme))) + "\n"
    for n, alpha, orders in SIM_CASES:
        for seed in SIM_SEEDS:
            for scheme in EdfScheme:
                yield call_record(lambda: simulate_type1(SimConfig(
                    n=n, alpha=alpha, k_set=orders, n_rep=1500, seed=seed,
                    scheme=scheme, comparators=("ks", "stephens"))).rejections)


def cli_part():
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CLI_FILES.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for call in CLI_CALLS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(call.format(tmp=tmp).split())
            record = f"$ {call}\n{out.getvalue()}{err.getvalue()}exit {code}\n"
            yield None, 1, record.replace(tmp, "<tmp>")


# (name, unit, records) in print order
PARTS = (("solver", "solves", solver_part), ("series", "values", series_part),
         ("gof", "values", gof_part), ("wrappers", "values", wrapper_part),
         ("series-wide", "values", series_wide_part), ("cli", "calls", cli_part))


def main() -> None:
    for name, unit, part in PARTS:
        digest = hashlib.sha256()
        total = 0
        outcomes = collections.Counter()
        for outcome, count, text in part():
            digest.update(text.encode())
            total += count
            outcomes[outcome] += 1
        tally = ", ".join(f"{outcome} {n}" for outcome, n in outcomes.most_common()
                          if outcome is not None)
        print(f"{name} {total} {unit}{': ' + tally if tally else ''}; "
              f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
