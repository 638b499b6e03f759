"""Command line front end.

Subcommands: pair, utq, ltq, invcdf, cdf, test, table, simulate.
Exit codes: 0 success/accept, 1 test rejected, 2 usage or domain error,
3 solver non-convergence.  NumPy, ``gof`` and ``montecarlo`` are imported
only by ``test`` and ``simulate``; the other commands never load NumPy.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys

from .series import _scale_v, cdf_kn, utp
from .solver import (ConvergenceError, FixedPointDomainError, kuiper_inv_cdf,
                     kuiper_ltq, kuiper_pair_solver, kuiper_utq)

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_NOCONV = 3

DEFAULT_TABLE_N = "6,7,8,9,10,20,30,40,50,100,1000000"


def _emit(args, rows: list, payload=None, text: str | None = None) -> None:
    """Print a command's records in the format ``args.format`` names.

    ``rows`` are dicts sharing one key order.  csv: the keys as header, one
    line per row, floats by the csv module's repr, None as an empty cell.
    json: ``payload``, or else the single row.  table: ``text``, or else
    the single row as aligned ``key  value`` lines rounded to --precision.
    """
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows(map(dict.values, rows))
    elif args.format == "json":
        print(json.dumps(rows[0] if payload is None else payload, indent=2))
    elif text is not None:
        print(text)
    else:
        width = max(map(len, rows[0]))
        for key, value in rows[0].items():
            if isinstance(value, float):
                value = f"{value:.{args.precision}f}"
            print(f"{key:<{width}}  {value}")


def _pair_text(c: float, v: float, precision: int) -> str:
    return f"({c:.{precision}f}, {v:.{precision}f})"


def _parse_int_list(text: str, flag: str) -> list:
    if not text.strip():
        raise ValueError(f"{flag} needs at least one value, got {text!r}")
    try:  # int() strips spaces; an empty item raises
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be a comma list of integers, "
                         f"got {text!r}") from None


_DIST_RE = re.compile(r"^\s*(\w+)\s*\(([^)]*)\)\s*$")


def parse_dist_spec(spec: str):
    """Turn a distribution spec into a CDF callable.

    Accepted forms: normal(mu,sigma), uniform(a,b), or table:PATH where
    PATH holds a two-column monotone CDF table (linear interpolation).
    """
    import numpy as np

    from .montecarlo import normal_cdf

    if spec.startswith("table:"):
        return _load_cdf_table(spec[len("table:"):])
    m = _DIST_RE.match(spec)
    unparsed = ValueError(f"cannot parse distribution spec {spec!r}; expected "
                          f"name(p1,p2) or table:PATH")
    if not m:
        raise unparsed
    name = m.group(1).lower()
    try:
        params = [float(p) for p in m.group(2).split(",")] if m.group(2).strip() else []
    except ValueError:  # a parameter that is not a number, or an empty one
        raise unparsed from None
    if not all(map(math.isfinite, params)):
        raise ValueError(f"distribution parameters must be finite, got {spec!r}")
    if name == "normal":
        if len(params) != 2 or params[1] <= 0:
            raise ValueError("normal distribution needs (mu, sigma) with sigma > 0")
        mu, sigma = params
        return lambda x: normal_cdf((x - mu) / sigma)
    if name == "uniform":
        if len(params) != 2 or params[0] >= params[1]:
            raise ValueError("uniform distribution needs (a, b) with a < b")
        a, b = params
        return lambda x: np.clip((x - a) / (b - a), 0.0, 1.0)
    raise ValueError(f"unknown distribution {name!r}; expected normal, uniform, "
                     f"or table:PATH")


def _read_numbers(path: str, width: int) -> list:
    """Rows of ``width`` (1 or 2) finite numbers, one row a line of a text
    file.  Blank and '#' lines are skipped; two columns split at commas or
    whitespace.  Every error names ``path:line``."""
    rows = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            cells = text.replace(",", " ").split() if width == 2 else [text]
            if len(cells) != width:
                raise ValueError(f"{path}:{lineno}: expected two columns, "
                                 f"got {text!r}")
            try:
                row = [float(cell) for cell in cells]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {text!r}")
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}:{lineno}: not a finite number: {text!r}")
            rows.append(row)
    return rows


def _load_cdf_table(path: str):
    import numpy as np

    rows = _read_numbers(path, 2)
    if len(rows) < 2:
        raise ValueError(f"{path}: a CDF table needs at least two rows")
    xs, ps = np.array(rows).T
    if (np.diff(xs) <= 0).any():
        raise ValueError(f"{path}: x column must be strictly increasing")
    if (np.diff(ps) < 0).any() or ps[0] < 0 or ps[-1] > 1:
        raise ValueError(f"{path}: probability column must be nondecreasing "
                         f"within [0, 1]")
    return lambda x: np.interp(x, xs, ps, left=ps[0], right=ps[-1])


def read_sample_file(path: str, csv_column: str | None = None) -> list:
    """One value per line ('#' comments allowed), or a CSV column."""
    if csv_column is None:
        return [value for value, in _read_numbers(path, 1)]
    with open(path, encoding="utf-8-sig", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty CSV file")
    if csv_column.isdecimal():  # "-1" and "²" are header names
        idx = int(csv_column)
        start = 0
    else:
        header = rows[0]
        if csv_column not in header:
            raise ValueError(f"{path}: no column named {csv_column!r} in header "
                             f"{header}")
        idx = header.index(csv_column)
        start = 1
    values = []
    for lineno, row in enumerate(rows[start:], start=start + 1):
        if not row:
            continue
        try:
            cell = row[idx]
        except IndexError:
            raise ValueError(f"{path}:{lineno}: row has no column {idx}")
        try:
            value = float(cell)
        except ValueError:
            if start == 0 and lineno == 1:
                continue  # tolerate a header row above an index-selected column
            raise ValueError(f"{path}:{lineno}: not a number: {cell!r}")
        if not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: not a finite number: {cell!r}")
        values.append(value)
    if not values:
        raise ValueError(f"{path}: no usable values in column {csv_column!r}")
    return values


def cmd_pair(args) -> int:
    pair = kuiper_pair_solver(args.alpha, args.n, args.k, args.method)
    row = {"alpha": pair.alpha, "n": pair.n, "k": pair.k, "method": args.method,
           "c": pair.c, "v": pair.v, "iterations": pair.iterations,
           "residual": pair.residual}
    _emit(args, [row], text=_pair_text(pair.c, pair.v, args.precision))
    return EXIT_OK


# Quantile command -> (solver, level flag, help text).
_QUANTILES = {
    "utq": (kuiper_utq, "alpha", "UTQ of V_n"),
    "ltq": (kuiper_ltq, "alpha", "LTQ of V_n"),
    "invcdf": (kuiper_inv_cdf, "x", "inverse CDF of V_n"),
}


def cmd_quantile(args) -> int:
    solve, level, _ = _QUANTILES[args.command]
    value = solve(getattr(args, level), args.n, args.k)
    row = {level: getattr(args, level), "n": args.n, "k": args.k, "v": value}
    _emit(args, [row], text=f"{value:.{args.precision}f}")
    return EXIT_OK


def cmd_cdf(args) -> int:
    c = args.c if args.v is None else _scale_v(args.v, args.n)
    p = cdf_kn(c, args.n, args.k)
    tail = utp(c, args.n, args.k)
    row = {"n": args.n, "k": args.k, "c": c, "cdf": float(p), "utp": float(tail)}
    if p.warning:
        row["warning"] = p.warning
    _emit(args, [row])
    return EXIT_OK


def cmd_test(args) -> int:
    from .gof import SampleSet, kuiper_test

    cdf = parse_dist_spec(args.dist)
    sample = SampleSet(read_sample_file(args.file, args.csv_column))
    result = kuiper_test(sample, cdf, alpha=args.alpha, k=args.k)
    row = {"n": sample.n, "d_plus": result.d_plus, "d_minus": result.d_minus,
           "v_n": result.v_n, "v_critical": result.v_critical,
           "p_value": float(result.p_value), "alpha": result.alpha,
           "k": result.k, "scheme": result.scheme.value,
           "decision": "reject" if result.reject else "accept"}
    _emit(args, [row])
    return EXIT_REJECT if result.reject else EXIT_OK


def _table_cell(args, n: int, k: int) -> tuple:
    try:
        return kuiper_pair_solver(args.alpha, n, k, args.method)[:2]
    except (FixedPointDomainError, ConvergenceError):
        return None, None  # order k has no pair here: printed as x or empty


def cmd_table(args) -> int:
    n_list = _parse_int_list(args.n, "--n")
    k_list = _parse_int_list(args.k, "--k")
    for flag, items, text in (("--n", n_list, args.n), ("--k", k_list, args.k)):
        for i, item in enumerate(items):
            if item in items[:i]:  # a repeated row or column
                raise ValueError(f"{flag} repeats {item}: {text!r}")
    grid = [[_table_cell(args, n, k) for k in k_list] for n in n_list]
    cells = ({"n": n, "k": k, "c": c, "v": v} for n, row in zip(n_list, grid)
             for k, (c, v) in zip(k_list, row))
    if args.format == "csv":
        _emit(args, [{"alpha": args.alpha, **cell} for cell in cells])
    elif args.format == "json":
        _emit(args, [], payload={"alpha": args.alpha, "cells": list(cells)})
    else:
        width = 2 * args.precision + 10
        lines = [f"alpha = {args.alpha}", f"{'n':>9}" + "".join(
            f"{'k=' + str(k):>{width}}" for k in k_list)]
        lines += [f"{n:>9}" + "".join(
            f"{'x' if c is None else _pair_text(c, v, args.precision):>{width}}"
            for c, v in row) for n, row in zip(n_list, grid)]
        _emit(args, [], text="\n".join(lines))
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .gof import EdfScheme
    from .montecarlo import SimConfig, simulate_type1

    k_list = _parse_int_list(args.k, "--k")
    comparators = (() if args.comparators is None else
                   tuple(s.strip() for s in args.comparators.split(",")))
    cfg = SimConfig(n=args.n, alpha=args.alpha, k_set=tuple(k_list),
                    n_rep=args.nrep, seed=args.seed,
                    scheme=EdfScheme.from_string(args.scheme),
                    comparators=comparators)
    result = simulate_type1(cfg)
    p = args.precision
    rows, results = [], []
    lines = [f"n={cfg.n} alpha={cfg.alpha} n_rep={cfg.n_rep} seed={cfg.seed} "
             f"scheme={cfg.scheme.value}"]
    for method, rate in result.p_type1.items():
        k = int(method.removeprefix("hoe_k")) if method.startswith("hoe_k") else None
        ci = result.ci_halfwidth[method]
        rows.append({"method": method, "n": cfg.n, "alpha": cfg.alpha, "k": k,
                     "n_rep": cfg.n_rep, "p_type1": rate, "ci_halfwidth": ci,
                     "seed": cfg.seed})
        results.append({"method": method, "k": k,
                        "rejections": result.rejections[method],
                        "p_type1": rate, "ci_halfwidth": ci})
        lines.append(f"  {method:<10} p_type1={rate:.{p}f}  ci95=+/-{ci:.{p}f}")
    payload = {"n": cfg.n, "alpha": cfg.alpha, "n_rep": cfg.n_rep,
               "seed": cfg.seed, "scheme": cfg.scheme.value,
               "results": results, "metadata": result.metadata}
    _emit(args, rows, payload=payload, text="\n".join(lines))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process, on first use."""
    parser = argparse.ArgumentParser(
        prog="kuiper-hoe",
        description="Kuiper V_n statistic: quantiles, tables, tests, simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["table", "csv", "json"],
                       default="table")
        p.add_argument("--precision", type=int, default=4,
                       help="decimal places for table output (default 4)")

    p = sub.add_parser("pair", help="solve the (c, v) critical pair")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--method", choices=["direct", "newton"], default="newton")
    add_common(p)
    p.set_defaults(func=cmd_pair)

    for name, (_, level, help_text) in _QUANTILES.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(f"--{level}", type=float, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, default=1)
        add_common(p)
        p.set_defaults(func=cmd_quantile)

    p = sub.add_parser("cdf", help="CDF and UTP at a statistic value")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--v", type=float, help="raw statistic V_n")
    given.add_argument("--c", type=float, help="scaled statistic K_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=5)
    add_common(p)
    p.set_defaults(func=cmd_cdf)

    p = sub.add_parser("test", help="goodness-of-fit test on a data file")
    p.add_argument("--file", required=True)
    p.add_argument("--dist", required=True,
                   help="normal(mu,sigma), uniform(a,b), or table:PATH")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--csv-column", default=None,
                   help="read this CSV column (name or 0-based index)")
    add_common(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("table", help="regenerate a critical-value grid")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", default=DEFAULT_TABLE_N, help="comma list of n")
    p.add_argument("--k", default="1,2,3,4,5", help="comma list of k")
    p.add_argument("--method", choices=["direct", "newton"], default="newton")
    add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("simulate", help="Type I error Monte Carlo")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--k", default="1,2,3,4,5", help="comma list of k")
    p.add_argument("--nrep", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--scheme", default="scheme0")
    p.add_argument("--comparators", help="comma list from {ks, stephens}")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.precision < 0:
            parser.error(f"argument --precision: must be >= 0, got {args.precision}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
