#!/usr/bin/env python3
"""Type-I-error sweep over a capacity grid, one CSV row per (n, method).

Reproduces the rejection-rate experiment at a chosen replication count:
standard-normal null, t/n plotting positions, orders 1..5 plus the KS and
modified-statistic comparators.
"""

import argparse
import sys

from kuiper_hoe import EdfScheme, SimConfig, simulate_type1

N_GRID = (6, 7, 8, 9, 10, 20, 30, 40, 50, 100, 180)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", default=",".join(str(n) for n in N_GRID),
                        help="comma list of sample capacities")
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--nrep", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted (>= 1) but has no effect")
    parser.add_argument("--no-comparators", action="store_true")
    args = parser.parse_args()

    comparators = () if args.no_comparators else ("ks", "stephens")
    first = True
    for n in (int(s) for s in args.n.split(",") if s.strip()):
        cfg = SimConfig(n=n, alpha=args.alpha, k_set=(1, 2, 3, 4, 5),
                        n_rep=args.nrep, seed=args.seed,
                        scheme=EdfScheme.SCHEME0, comparators=comparators,
                        workers=args.workers)
        csv_text = simulate_type1(cfg).to_csv()
        if not first:
            csv_text = csv_text.split("\n", 1)[1]
        sys.stdout.write(csv_text)
        first = False


if __name__ == "__main__":
    main()
