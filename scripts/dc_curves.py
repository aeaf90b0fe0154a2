#!/usr/bin/env python3
"""Emit partial Carleman-sum curves for several weight families as CSV.

The partial sums of M_n / ((n+1) M_{n+1}) diverge exactly for the
quasianalytic families; this script tabulates them so the growth (or
saturation) can be plotted side by side.

Usage:
    python scripts/dc_curves.py --N 128 --out dc_curves.csv
    python scripts/dc_curves.py --seq "powersub(iterlog(1),2)" --N 200
"""

import argparse
import csv
import sys
from itertools import islice

from carleman.criteria import dc_partial_sums
from carleman.scalar import ScalarConfig, decimal_str
from carleman.spec import ConfigError, parse_sequence_spec

DEFAULT_FAMILIES = [
    "analytic",
    "gevrey(1)",
    "iterlog(1)",
    "iterlog(2)",
    "powersub(iterlog(1),2)",
    "powersub(iterlog(2),2)",
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=96, help="largest partial-sum index")
    ap.add_argument("--step", type=int, default=4)
    ap.add_argument("--seq", action="append", help="extra sequence spec (repeatable)")
    ap.add_argument("--bits", type=int, default=128)
    ap.add_argument("--digits", type=int, default=12)
    ap.add_argument("--out", default=None, help="CSV path (default: stdout)")
    args = ap.parse_args(argv)
    if args.digits < 0:
        ap.error("--digits must be nonnegative")
    if args.step < 1:
        ap.error("--step must be positive")
    if args.bits < 8:
        ap.error("--bits must be at least 8")

    specs = DEFAULT_FAMILIES + (args.seq or [])
    try:
        seqs = [(s, parse_sequence_spec(s)) for s in specs]
    except ConfigError as exc:
        ap.error(str(exc))
    cfg = ScalarConfig(bits=args.bits)

    # one running curve per family, taken up to each N in turn
    curves = [(spec, dc_partial_sums(seq, args.N, cfg)) for spec, seq in seqs]
    rows = []
    for N in range(0, args.N + 1, args.step):
        for spec, curve in curves:
            enc = next(islice(curve, 0 if N == 0 else args.step - 1, None)).interval()
            rows.append(
                (
                    spec,
                    N,
                    decimal_str(enc.lo, args.digits, "down"),
                    decimal_str(enc.hi, args.digits, "up"),
                )
            )

    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(["sequence", "N", "lower", "upper"])
        w.writerows(rows)
    finally:
        if args.out:
            out.close()
            print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
