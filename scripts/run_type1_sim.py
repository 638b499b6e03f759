#!/usr/bin/env python3
"""Type-I-error sweep over a capacity grid, one CSV row per (n, method).

Reproduces the rejection-rate experiment at a chosen replication count:
standard-normal null, t/n plotting positions, orders 1..5 plus the KS and
modified-statistic comparators.  Each capacity runs
``kuiper-hoe simulate --format csv``; the rows share one header.
"""

import argparse
import contextlib
import io
import sys

from kuiper_hoe import cli

N_GRID = (6, 7, 8, 9, 10, 20, 30, 40, 50, 100, 180)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", default=",".join(str(n) for n in N_GRID),
                        help="comma list of sample capacities")
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--nrep", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-comparators", action="store_true")
    args = parser.parse_args()

    comparators = "" if args.no_comparators else "ks,stephens"
    first = True
    for n in (int(s) for s in args.n.split(",") if s.strip()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["simulate", "--n", str(n), "--alpha", repr(args.alpha),
                             "--k", "1,2,3,4,5", "--nrep", str(args.nrep),
                             "--seed", str(args.seed), "--scheme", "scheme0",
                             "--comparators", comparators, "--format", "csv"])
        if code != cli.EXIT_OK:
            return code
        csv_text = buf.getvalue()
        sys.stdout.write(csv_text if first else csv_text.split("\n", 1)[1])
        first = False
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
