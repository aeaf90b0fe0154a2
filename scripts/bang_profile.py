#!/usr/bin/env python3
"""Profile the extremal cosine series: derivative sizes at 0 against the
M'_2n lower bound and the 2**(n+1) M'_n envelope.

Prints, per order, the certified enclosure of |F^(2n)(0)|, the lower target
M'_2n, the largest |F^(n)| on a small grid against the derived envelope, and
the point-free margin (S_n + tail_n) / (2**(n+1) M'_n) from which
bang_envelope_check decides each order without the grid (when it is <= 1).

Usage:
    python scripts/bang_profile.py --n-max 8
    python scripts/bang_profile.py --seq "iterlog(2,3)" --n-max 6
"""

import argparse
import sys
from fractions import Fraction
from math import factorial

from carleman.bang import BangFunction, _bang_majorant, bang_derivative
from carleman.scalar import PrecisionError, ScalarConfig
from carleman.seqcore import SequenceError
from carleman.spec import ConfigError, parse_sequence_spec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seq", default="iterlog(2)")
    ap.add_argument("--n-max", type=int, default=8, dest="n_max")
    ap.add_argument("--bits", type=int, default=128)
    ap.add_argument("--grid", type=int, default=9)
    args = ap.parse_args(argv)
    if args.n_max < 0:
        ap.error("--n-max must be nonnegative")
    if args.bits < 8:
        ap.error("--bits must be at least 8")
    if args.grid < 2:
        ap.error("--grid needs at least 2 points")

    try:
        seq = parse_sequence_spec(args.seq)
    except ConfigError as exc:
        ap.error(str(exc))
    try:
        B = BangFunction(seq, p=2, max_order=2 * args.n_max, cfg=ScalarConfig(bits=args.bits))
    except (SequenceError, PrecisionError) as exc:
        ap.error(f"cannot build the series: {exc}")
    cfg = ScalarConfig(bits=args.bits)
    print(f"# {B.describe()}, tail scope {B.tail_scope}")
    print(f"{'n':>3} {'|F^(2n)(0)| >=':>24} {'target M_2n':>24} {'ratio':>10}")
    for n in range(args.n_max + 1):
        enc = abs(bang_derivative(B, 2 * n, 0, cfg).interval())
        target = (seq.enclosure(2 * n, args.bits) * factorial(2 * n)).hi
        print(f"{n:>3} {float(enc.lo):>24.6e} {float(target):>24.6e} "
              f"{float(enc.lo / target):>10.4f}")

    print()
    print(f"{'n':>3} {'max |F^(n)| on grid':>24} {'envelope 2^(n+1) M_n':>24} "
          f"{'point-free':>10}")
    xs = [Fraction(-1) + Fraction(2 * i, args.grid - 1) for i in range(args.grid)]
    for n in range(args.n_max + 1):
        worst = max(
            abs(bang_derivative(B, n, x, cfg).interval()).hi for x in xs
        )
        env = (seq.enclosure(n, args.bits) * factorial(n)).hi * 2 ** (n + 1)
        margin = _bang_majorant(B, n, args.bits).hi / env
        print(f"{n:>3} {float(worst):>24.6e} {float(env):>24.6e} {float(margin):>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
