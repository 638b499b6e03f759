#!/usr/bin/env python3
"""Regenerate the critical-value tables for all supported levels.

Writes one CSV per significance level (or prints to stdout): exactly the
output of ``kuiper-hoe table --alpha ALPHA --format csv``, with columns
alpha,n,k,c,v at full float precision and empty c, v cells where order k
cannot reach the level.
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

from kuiper_hoe import cli

ALPHAS = (0.01, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=None,
                        help="one level (default: all seven)")
    parser.add_argument("--out-dir", default=None,
                        help="write pair_table_<alpha>.csv files here "
                             "(default: stdout)")
    args = parser.parse_args()

    alphas = (args.alpha,) if args.alpha is not None else ALPHAS
    for alpha in alphas:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["table", "--alpha", repr(alpha), "--format", "csv"])
        if code != cli.EXIT_OK:
            return code
        if args.out_dir is None:
            sys.stdout.write(buf.getvalue())
        else:
            path = Path(args.out_dir) / f"pair_table_{alpha:g}.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(buf.getvalue(), encoding="utf-8")
            print(f"wrote {path}")
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
