"""Class-level criteria: quasianalyticity, derivation closure, inclusion.

Divergence of the Carleman sum is not finitely observable, so numeric
sweeps alone never decide quasianalyticity.  Global verdicts come from
family oracles (constant, factorial-power, iterated-log families and their
power substitutions); anything else is reported Inconclusive together with
trend diagnostics from the partial sums.  The n-th roots appearing in the
closure and inclusion estimates are computed through interval exp/log with
precision refinement.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Optional, Tuple

from .scalar import (
    DEFAULT_CONFIG,
    DisplayFloat,
    Interval,
    Scalar,
    ScalarConfig,
    display_float,
    iv_pow,
    iv_root_of_product,
    make_scalar,
)
from .seqcore import (
    Analytic,
    Custom,
    Gevrey,
    IteratedLog,
    SequenceError,
    Trend,
    Verdict,
    WeightSequence,
    Window,
    _check_window,
    flatten_power_sub,
    global_family_rule,
)

EstimateResult = Tuple[Scalar, Verdict]


def dc_partial_sum(seq: WeightSequence, N: int, cfg: ScalarConfig = DEFAULT_CONFIG) -> Scalar:
    """Partial Carleman sum: sum_{n=0}^{N} M_n / ((n+1) M_{n+1})."""
    if N < 0:
        raise SequenceError("partial-sum bound N must be nonnegative")
    for exact, enclosure in _partial_sums(seq, N):
        pass
    return make_scalar(cfg, exact, enclosure)


def dc_partial_sums(
    seq: WeightSequence, N: int, cfg: ScalarConfig = DEFAULT_CONFIG
) -> Iterator[Scalar]:
    """``dc_partial_sum(seq, m, cfg)`` for m = 0, 1, ..., N in turn, each from
    the one before it: the whole curve sums N + 1 terms."""
    for exact, enclosure in _partial_sums(seq, N):
        yield make_scalar(cfg, exact, enclosure)


# the guard of the running partial sums: after m + 1 roundings a total lies
# within (m + 1) 2**-64 of its size of the unrounded one, so rounded to
# ``bits`` for output it moves only that close to a ``bits``-bit dyadic (a
# 16-bit guard moved emitted digits at 64 to 96 bits)
_SUM_GUARD_BITS = 64


def _partial_sums(
    seq: WeightSequence, N: int
) -> Iterator[Tuple[Optional[Fraction], Callable[[int], Interval]]]:
    """For m = 0, ..., N: the exact partial sum up to m (None from the first
    term that is not rational on) and a function of the bits enclosing it.
    The enclosures extend one running total per bit size, adding each term
    once and rounding outward at bits + ``_SUM_GUARD_BITS``; each must be
    asked for before the next m is drawn."""
    exact = Fraction(0)
    running = {}  # bits -> (terms summed, their enclosure)
    for m in range(N + 1):
        if exact is not None:
            a, b = seq.exact(m), seq.exact(m + 1)
            exact = None if a is None or b is None else exact + a / ((m + 1) * b)

        def enclosure(bits: int, m: int = m) -> Interval:
            done, total = running.get(bits, (0, Interval.point(0)))
            for n in range(done, m + 1):
                term = seq.enclosure(n, bits) / (seq.enclosure(n + 1, bits) * (n + 1))
                total = (total + term).outward(bits + _SUM_GUARD_BITS)
            running[bits] = (m + 1, total)
            return total

        yield exact, enclosure


def _dc_trend(seq: WeightSequence, N: int, cfg: ScalarConfig) -> Trend:
    marks = {max(1, N // 4), max(2, N // 2), N}
    sums = enumerate(dc_partial_sums(seq, N, ScalarConfig(bits=cfg.bits)))
    points = [(m, display_float(s)) for m, s in sums if m in marks]
    growth = None
    if len(points) >= 2 and points[-1][0] > points[-2][0]:
        # in 53 bits, as floats round, but past the float range as well
        ds = DisplayFloat(points[-1][1]) - points[-2][1]
        dlog = math.log(points[-1][0]) - math.log(points[-2][0])
        growth = display_float(ds / dlog)
    return Trend(last=tuple(points), growth=growth, note="partial-sum slope per log N")


# the verdict window of the family oracles, and the top of the partial-sum
# trend reported when no oracle applies
_TREND_WINDOW = 64


def quasianalytic_verdict(seq: WeightSequence, cfg: ScalarConfig = DEFAULT_CONFIG) -> Verdict:
    """Global family-oracle verdict; Custom and regularized sequences get an
    Inconclusive with partial-sum trend data."""
    flat, total_p = flatten_power_sub(seq)
    trend_window = _TREND_WINDOW
    if isinstance(flat, Custom) and flat.length is not None:
        # the partial sum up to N reads M_{p(N+1)}, at most the table's last entry
        trend_window = min(trend_window, (flat.length - 1) // total_p - 1)
    window = (0, max(0, trend_window))
    base, p = flat, total_p
    if isinstance(base, Analytic) or (isinstance(base, Gevrey) and base.s == 0):
        return Verdict.holds(
            window,
            scope="global",
            provenance="constant weights: the Carleman sum is the divergent harmonic series",
        )
    if isinstance(base, Gevrey):
        return Verdict.fails(
            window,
            scope="global",
            provenance=(
                "factorial-power weights: Carleman terms decay like n**(-(s+1)), "
                "the sum converges; power substitution only enlarges the class"
            ),
        )
    if isinstance(base, IteratedLog):
        if p == 1:
            return Verdict.holds(
                window,
                scope="global",
                provenance="iterated-log weights: the Carleman sum diverges by condensation",
            )
        if base.k > 1:
            return Verdict.holds(
                window,
                scope="global",
                provenance=(
                    f"power-substituted iterated-log weights with depth k={base.k} > 1 "
                    "keep a divergent Carleman sum"
                ),
            )
        return Verdict.fails(
            window,
            scope="global",
            provenance=(
                "power substitution of single-log weights concentrates growth: "
                "the Carleman sum converges"
            ),
        )
    return Verdict.inconclusive(
        window,
        trend=_dc_trend(seq, trend_window, cfg),
        provenance="no family oracle for this sequence; trend data only",
    )


def _root_of_ratio(
    num: WeightSequence, den: WeightSequence, n: int, root: int, bits: int
) -> Interval:
    """Enclosure of (num_n / den_n) ** (1/root)."""
    a, b = num.exact(n), den.exact(n)
    if a is not None and b is not None:
        return iv_pow(Interval.point(a / b), Fraction(1, root), bits)
    if root == 1:
        return num.enclosure(n, bits) / den.enclosure(n, bits)
    return iv_root_of_product(num.enclosure(n, bits), 1, den.enclosure(n, bits), -1, root, bits)


class _ShiftedView(WeightSequence):
    """Index-shifted read-only view, for ratio roots (M_{n+1}/M_n)**(1/n)."""

    def __init__(self, base: WeightSequence, shift: int):
        super().__init__()
        self.base = base
        self.shift = shift

    def _root(self, n):
        return self.base.as_root(n + self.shift)

    def _enclosure(self, n, bits):
        return self.base.enclosure(n + self.shift, bits)


def _sweep_roots(
    num: WeightSequence, den: WeightSequence, window: Window, bits: int
) -> Tuple[Interval, int, list]:
    """Max over the window of (num_n/den_n)**(1/n); returns the enclosing
    interval of the max, the index attaining the largest lower bound, and the
    per-index values."""
    a, b = window
    best: Optional[Interval] = None
    best_n = a
    values = []
    for n in range(a, b + 1):
        r = _root_of_ratio(num, den, n, n, bits)
        values.append((n, r))
        if best is None:
            best, best_n = r, n
        else:
            if r.lo > best.lo:
                best_n = n
            best = Interval(max(best.lo, r.lo), max(best.hi, r.hi))
    return best, best_n, values


def _window_max(
    best: Interval, cfg: ScalarConfig, sweep: Callable[[int], Interval]
) -> Scalar:
    """The window max as a scalar, from ``best``, the sweep's result at
    ``cfg.bits``; ``sweep`` runs again only at other bits."""
    exact = best.lo if best.is_point() else None
    return make_scalar(cfg, exact, lambda bits: best if bits == cfg.bits else sweep(bits))


def _closure_global_oracle(seq: WeightSequence) -> Optional[str]:
    base, _p = flatten_power_sub(seq)
    if isinstance(base, Analytic):
        return "constant weights: every ratio root equals 1"
    if isinstance(base, Gevrey):
        return "factorial-power weights: ratio roots (n+1)**(s/n) decrease to 1"
    if isinstance(base, IteratedLog):
        return "iterated-log weights: ratio roots tend to 1, so the family is derivation-closed"
    return None


def _inclusion_global_oracle(
    M: WeightSequence, N: WeightSequence
) -> Optional[str]:
    if M is N:
        return "identical sequences: every ratio root equals 1"
    if isinstance(M, Analytic) and global_family_rule(N) is not None:
        return "constant numerator over weights bounded below by 1"
    if isinstance(M, Gevrey) and isinstance(N, Gevrey) and M.s <= N.s:
        return "comparable factorial powers: ratio roots stay at most 1"
    return None


def _root_estimate(
    num: WeightSequence,
    den: WeightSequence,
    window: Window,
    cfg: ScalarConfig,
    oracle: Optional[str],
    monotone_note: bool = False,
) -> EstimateResult:
    """Window max of (num_n/den_n)**(1/n) plus a boundedness verdict: the
    global Holds of ``oracle`` when one applies, else an Inconclusive with
    the sweep's tail, which notes monotone growth when ``monotone_note``."""
    a, b = _check_window(window, min_start=1)
    best, best_n, values = _sweep_roots(num, den, (a, b), cfg.bits)
    scalar = _window_max(best, cfg, lambda bits: _sweep_roots(num, den, (a, b), bits)[0])
    if oracle is not None:
        return scalar, Verdict.holds(window, scope="global", provenance=oracle)
    tail = [(n, display_float(r.midpoint)) for n, r in values[-3:]]
    growth = None
    if len(tail) >= 2 and tail[-2][1]:
        growth = display_float(DisplayFloat(tail[-1][1]) / tail[-2][1])
    note = f"window max ~{display_float(best.midpoint):.6g} at n={best_n}"
    if monotone_note and len(values) >= 2 and all(
        values[i + 1][1].lo >= values[i][1].lo for i in range(len(values) - 1)
    ):
        note += "; monotone growth across the window"
    verdict = Verdict.inconclusive(
        window,
        trend=Trend(last=tuple(tail), growth=growth, note=note),
        provenance="boundedness of the sup is not finitely observable",
    )
    return scalar, verdict


def derivation_closure_estimate(
    seq: WeightSequence, window: Window = (1, 64), cfg: ScalarConfig = DEFAULT_CONFIG
) -> EstimateResult:
    """Window max of (M_{n+1}/M_n)**(1/n) plus a boundedness verdict."""
    return _root_estimate(_ShiftedView(seq, 1), seq, window, cfg, _closure_global_oracle(seq))


def inclusion_estimate(
    M: WeightSequence,
    N: WeightSequence,
    window: Window = (1, 64),
    cfg: ScalarConfig = DEFAULT_CONFIG,
) -> EstimateResult:
    """Window max of (M_n/N_n)**(1/n) plus a boundedness verdict."""
    return _root_estimate(M, N, window, cfg, _inclusion_global_oracle(M, N), monotone_note=True)
