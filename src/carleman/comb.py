"""Exact series combinatorics and certified inequality sweeps.

Everything here is exact-rational at the core: coefficients of powers of
the series sum x**i / i (convolution, cross-checked against brute-force
composition enumeration), the generalized binomial coefficients of
(1+u)**(1/p) and their k-fold products b_j, diagonal derivatives of
alpha_k(X, x) = (X**(1/p) - x**(1/p))**k / k!, and a jet-based formula for
derivatives of composite functions.

Inequalities with a transcendental side (powers of 2e, of e, square roots
of 2 pi n) are certified one-sidedly: an exact left side is compared with
a rational lower bound of the right side, so Holds is sound; apparent
failures are re-checked against an upper bound before being reported, and
anything still unresolved escalates precision up to the configured cap.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from .scalar import (
    DEFAULT_CONFIG,
    Interval,
    RationalLike,
    Scalar,
    ScalarConfig,
    _as_fraction,
    exact_nth_root,
    iv_e,
    iv_pi,
    iv_pow,
    iv_sqrt,
    make_scalar,
    refine,
    refine_le,
)
from .seqcore import Trend, Verdict, Witness

COMPOSITION_GUARD = 25


@dataclass(frozen=True)
class TruncatedPowerSeries:
    """Finite coefficient window [valuation, order] of a power series.

    The zero series is represented with valuation = order + 1 and no stored
    coefficients.  Arithmetic truncates consistently at the common order.
    """

    coeffs: Tuple[Fraction, ...]
    valuation: int
    order: int

    def __post_init__(self):
        if self.valuation < 0:
            raise ValueError("valuation must be nonnegative")
        expected = self.order - self.valuation + 1
        if len(self.coeffs) != max(expected, 0):
            raise ValueError(
                f"coefficient window has {len(self.coeffs)} entries, expected {expected}"
            )

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[RationalLike], valuation: int, order: int):
        return cls(tuple(_as_fraction(c) for c in coeffs), valuation, order)

    @classmethod
    def zero(cls, order: int) -> "TruncatedPowerSeries":
        return cls((), order + 1, order)

    def coeff(self, n: int) -> Fraction:
        if n > self.order:
            raise ValueError(f"coefficient {n} beyond truncation order {self.order}")
        if n < self.valuation:
            return Fraction(0)
        return self.coeffs[n - self.valuation]

    def __mul__(self, other: "TruncatedPowerSeries") -> "TruncatedPowerSeries":
        order = min(self.order, other.order)
        val = self.valuation + other.valuation
        if val > order:
            return TruncatedPowerSeries.zero(order)
        # only the first order - val + 1 stored coefficients of either side
        # reach the truncated product; each side is scaled to integers over
        # the lcm of their denominators
        width = order - val + 1
        a, da = _integer_numerators(self.coeffs[:width])
        b, db = _integer_numerators(other.coeffs[:width])
        den = da * db
        # coefficient val + m is sum a[i] * b[m - i] over 0 <= i <= m
        coeffs = tuple(
            Fraction(sum(map(operator.mul, a[: m + 1], reversed(b[: m + 1]))), den)
            for m in range(width)
        )
        return TruncatedPowerSeries(coeffs, val, order)

    def pow_int(self, k: int) -> "TruncatedPowerSeries":
        if k < 1:
            raise ValueError("series power k must be >= 1")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def scale(self, c: RationalLike) -> "TruncatedPowerSeries":
        q = _as_fraction(c)
        return TruncatedPowerSeries(
            tuple(q * v for v in self.coeffs), self.valuation, self.order
        )


def _integer_numerators(coeffs: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Integers c_i and one denominator D with coeffs[i] == c_i / D."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _log_series(order: int) -> TruncatedPowerSeries:
    return TruncatedPowerSeries.from_coeffs(
        (Fraction(1, i) for i in range(1, order + 1)), 1, order
    )


def log_power_coefficients(k: int, order: int) -> TruncatedPowerSeries:
    """Coefficients c_{k,n} of (sum_{i>=1} x**i / i) ** k up to the order."""
    if not 1 <= k <= order:
        raise ValueError("need 1 <= k <= order")
    return _log_series(order).pow_int(k)


def composition_sum_oracle(k: int, n: int) -> Fraction:
    """Brute-force sum of 1/(i_1 * ... * i_k) over compositions of n into k
    positive parts.  Refuses n beyond the enumeration cost guard."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if n > COMPOSITION_GUARD:
        raise ValueError(
            f"composition enumeration refused for n={n} > {COMPOSITION_GUARD}"
        )
    # every part divides lcm(1..n), so each prod divides common exactly
    common = math.lcm(*range(1, n + 1)) ** k
    total = 0
    # a composition is the parts between k - 1 cut points of 1..n-1
    for cuts in combinations(range(1, n), k - 1):
        prod, last = 1, 0
        for cut in (*cuts, n):
            prod *= cut - last
            last = cut
        total += common // prod
    return Fraction(total, common)


# -- certified sweeps ----------------------------------------------------------


def _two_e_powers(n_max: int, bits: int) -> Tuple[list, list]:
    """Lower and upper rational bounds of (2e)**n for n = 0..n_max."""
    e = iv_e(bits)
    lo2, hi2 = 2 * e.lo, 2 * e.hi
    lows, highs = [Fraction(1)], [Fraction(1)]
    for _ in range(n_max):
        lows.append(lows[-1] * lo2)
        highs.append(highs[-1] * hi2)
    return lows, highs


def _scaled_power_sweep(
    base: TruncatedPowerSeries,
    k_max: int,
    n_max: int,
    cfg: ScalarConfig,
    witness: Callable[[int, int, Fraction, Fraction], Witness],
    weight: Callable[[int], RationalLike] = lambda n: 1,
) -> Verdict:
    """Certified w_n |P**k [n]| / k! <= (2e)**n / n**k for 1 <= k <= k_max,
    1 <= n <= n_max, where P is ``base`` and w_n = ``weight(n)`` > 0.

    ``witness(k, n, lhs, bound_hi)`` builds the Fails evidence from the
    violating pair, its exact left side and the upper bound of the right.
    """
    window = (1, n_max)
    # the exact left sides do not depend on the working precision; each is
    # an integer pair num/den = w_n |P**k [n]| n**k / k!, cross-multiplied
    # with the bounds of (2e)**n, and a Fraction only in a Fails witness
    weights = [weight(n) for n in range(1, n_max + 1)]
    lhs = []
    power = base
    for k in range(1, k_max + 1):
        if k > 1:
            power = power * base
        kfact = factorial(k)
        row = []
        for n, w in enumerate(weights, 1):
            c = power.coeff(n)
            num = abs(c.numerator) * w.numerator * n ** k
            row.append((num, c.denominator * w.denominator * kfact))
        lhs.append(row)
    unresolved = None

    def decide(bits: int) -> Optional[Verdict]:
        nonlocal unresolved
        lows, highs = _two_e_powers(n_max, bits)
        for k, row in enumerate(lhs, 1):
            for n, (num, den) in enumerate(row, 1):
                lo = lows[n]
                if num * lo.denominator <= lo.numerator * den:
                    continue
                hi = highs[n]
                if num * hi.denominator > hi.numerator * den:
                    c = Fraction(num // n ** k, den)
                    return Verdict.fails(window, witness(k, n, c, hi / n ** k))
                unresolved = (k, n)
                return None
        return Verdict.holds(window)

    verdict = refine(decide, cfg)
    if verdict is not None:
        return verdict
    k, n = unresolved
    return Verdict.inconclusive(
        window, Trend(note=f"pair k={k}, n={n} unresolved at the precision cap")
    )


def lemma1_check(
    k_max: int, n_max: int, cfg: ScalarConfig = DEFAULT_CONFIG
) -> Verdict:
    """Certified sweep of c_{k,n} <= (2e)**n * k! / n**k over the bounds."""

    def witness(k, n, c, bound_hi):
        kfact = factorial(k)
        return Witness(n, (f"k={k}", f"c={c * kfact}", f"bound<{bound_hi * kfact}"))

    return _scaled_power_sweep(_log_series(n_max), k_max, n_max, cfg, witness)


def root_series_coefficients(p: int, order: int) -> TruncatedPowerSeries:
    """Signed coefficients a_i of (1+u)**(1/p) - 1 up to the order, from the
    generalized binomial recurrence."""
    if p < 2:
        raise ValueError("root exponent p must be >= 2")
    return _binomial_root_series(p, order)


def _binomial_root_series(p: int, order: int) -> TruncatedPowerSeries:
    coeffs = []
    c = Fraction(1)
    alpha = Fraction(1, p)
    for i in range(1, order + 1):
        c = c * (alpha - (i - 1)) / i
        coeffs.append(c)
    return TruncatedPowerSeries(tuple(coeffs), 1, order)


def alpha_b_coefficients(p: int, k: int, order: int) -> TruncatedPowerSeries:
    """Coefficients b_j of the k-fold product of the root series, scaled by
    1/k!; the j-th coefficient drives the diagonal derivatives of alpha_k."""
    if p < 2:
        raise ValueError("root exponent p must be >= 2")
    if k < 1:
        raise ValueError("factor count k must be >= 1")
    if k > order:
        return TruncatedPowerSeries.zero(order)
    return _binomial_root_series(p, order).pow_int(k).scale(Fraction(1, factorial(k)))


def b_coefficient_bound_check(
    p: int, k_max: int, n_max: int, cfg: ScalarConfig = DEFAULT_CONFIG
) -> Verdict:
    """Certified |b_n| <= (2e)**n / n**k for 1 <= k <= k_max, n <= n_max."""
    return _scaled_power_sweep(
        _binomial_root_series(p, n_max), k_max, n_max, cfg,
        lambda k, n, b, bound_hi: Witness(n, (f"k={k}", f"|b|={b}")),
    )


def _power_fraction_root(x: Fraction, p: int, exponent: int) -> Optional[Fraction]:
    """Exact value of x**(exponent/p) when the p-th root of x is rational."""
    xr = exact_nth_root(x, p)
    if xr is None:
        return None
    return xr ** exponent


def alpha_diag_derivative(
    p: int,
    k: int,
    n: int,
    x: RationalLike,
    cfg: ScalarConfig = DEFAULT_CONFIG,
) -> Scalar:
    """n-th diagonal derivative of alpha_k at (x, x):
    n! * b_n * x**(-(p n - k)/p), certified."""
    if p < 2:
        raise ValueError("root exponent p must be >= 2")
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    xq = _as_fraction(x)
    if xq <= 0:
        raise ValueError("x must be positive")
    b = alpha_b_coefficients(p, k, n).coeff(n)
    coef = factorial(n) * b
    m = p * n - k
    if coef == 0:
        return make_scalar(cfg, Fraction(0))
    if m % p == 0:
        return make_scalar(cfg, coef * xq ** (-(m // p)))
    exact_pow = _power_fraction_root(xq, p, -m)
    if exact_pow is not None:
        return make_scalar(cfg, coef * exact_pow)
    return make_scalar(
        cfg, None, lambda bits: iv_pow(Interval.point(xq), Fraction(-m, p), bits) * coef
    )


def lemma2_check(
    p_set: Sequence[int],
    n_max: int,
    x_grid: Sequence[RationalLike],
    cfg: ScalarConfig = DEFAULT_CONFIG,
) -> Verdict:
    """Certified diagonal-derivative bound
    |alpha_k^(n)(x,x)| <= (2e)**n * n**(n-k) * x**(-(pn-k)/p)
    for p in p_set, 1 <= k <= n <= n_max and every x > 0.

    Both sides carry the positive factor x**(-(pn-k)/p), so the bound is
    exactly |b_n| n!/n**n <= (2e)**n / n**k, with b_n the n-th coefficient
    of alpha_b_coefficients(p, k, n): it holds at every x or at none.  The
    grid is only validated and names the x of a Fails witness (its first
    point).
    """
    xs = [_as_fraction(x) for x in x_grid]
    if any(x <= 0 for x in xs):
        raise ValueError("grid points must be positive")
    if any(p < 2 for p in p_set):
        raise ValueError("root exponents must be >= 2")
    for p in p_set:
        verdict = _scaled_power_sweep(
            _binomial_root_series(p, n_max), n_max, n_max, cfg,
            lambda k, n, b, bound_hi: Witness(
                n, (f"p={p}", f"k={k}") + tuple(f"x={x}" for x in xs[:1])
            ),
            weight=lambda n: Fraction(factorial(n), n ** n),
        )
        if verdict.trend is not None:
            verdict = replace(verdict, trend=Trend(note=f"p={p}, {verdict.trend.note}"))
        if not verdict.ok:
            return verdict
    return Verdict.holds((1, n_max))


def stirling_ineq_check(
    p: int, n: int, k: int, cfg: ScalarConfig = DEFAULT_CONFIG
) -> Verdict:
    """Certified 1/(p n - k)! <= e**(p n) / n**(p n - k) for 0 <= k < p n."""
    if p < 2 or n < 1:
        raise ValueError("need p >= 2 and n >= 1")
    if not 0 <= k < p * n:
        raise ValueError("need 0 <= k < p n")
    window = (n, n)
    m = p * n - k
    # cleared form: n**m <= m! * e**(p n)
    lhs, fact = Interval.point(n ** m), factorial(m)
    holds = refine_le(lambda bits: lhs, lambda bits: iv_e(bits).pow_int(p * n) * fact, cfg)
    if holds:
        return Verdict.holds(window)
    if holds is False:
        return Verdict.fails(window, Witness(n, (f"p={p}", f"k={k}")))
    return Verdict.inconclusive(
        window, Trend(note=f"p={p}, n={n}, k={k} unresolved at the precision cap")
    )


def stirling_sweep(
    p_set: Sequence[int], n_max: int, cfg: ScalarConfig = DEFAULT_CONFIG
) -> Verdict:
    """Certified sweep of the reciprocal-factorial inequality over
    p in p_set, 1 <= n <= n_max, all 0 <= k < p n."""
    window = (1, n_max)
    bits = cfg.bits
    e = iv_e(bits)
    num, den = e.lo.numerator, e.lo.denominator
    for p in p_set:
        if p < 2:
            raise ValueError("root exponents must be >= 2")
        den_p, num_p = den ** p, num ** p
        den_pn, num_pn = 1, 1
        for n in range(1, n_max + 1):
            pn = p * n
            den_pn *= den_p
            num_pn *= num_p
            # integer comparison n**m * den**pn <= m! * num**pn.  From m - 1
            # to m the right side over the left changes by the factor m / n,
            # so it is smallest at m = n: one comparison there decides every
            # m.  Only a (p, n) that fails it walks the m, carrying both
            # sides from m - 1 by one small factor
            if n ** n * den_pn <= factorial(n) * num_pn:
                continue
            left, right = den_pn, num_pn
            for m in range(1, pn + 1):
                left *= n
                right *= m
                if left <= right:
                    continue
                k = pn - m
                single = stirling_ineq_check(p, n, k, cfg)
                if not single.ok:
                    return Verdict(
                        single.outcome, window, witness=single.witness, trend=single.trend
                    )
    return Verdict.holds(window)


def stirling_factorial_bounds_check(
    n_max: int, cfg: ScalarConfig = DEFAULT_CONFIG
) -> Verdict:
    """Certified two-sided factorial estimate
    sqrt(2 pi n) (n/e)**n < n! < e sqrt(n) (n/e)**n for 2 <= n <= n_max.

    The sweep starts at n = 2: at n = 1 the upper estimate is the exact
    equality 1! = e * (1/e), so the strict form fails there.
    """
    if n_max < 2:
        raise ValueError("two-sided factorial sweep needs n_max >= 2")
    window = (2, n_max)
    unresolved = None

    def decide(bits: int) -> Optional[Verdict]:
        nonlocal unresolved
        e = iv_e(bits)
        pi = iv_pi(bits)
        for n in range(2, n_max + 1):
            fact = factorial(n)
            nn = Fraction(n ** n)
            lower_hi = iv_sqrt(pi * (2 * n), bits).hi * nn / e.lo ** n
            # upper side written as sqrt(n) n**n e**(1-n) to cancel one e
            upper_lo = iv_sqrt(Interval.point(n), bits).lo * nn / e.hi ** (n - 1)
            if not (lower_hi < fact < upper_lo):
                unresolved = n
                return None
        return Verdict.holds(window)

    return refine(decide, cfg) or Verdict.inconclusive(
        window, Trend(note=f"factorial bounds unresolved near n={unresolved}")
    )


# -- composite derivatives and the remainder identity ---------------------------

Jet = Sequence[Union[Fraction, int, Interval]]
ExactJet = Sequence[RationalLike]


def _coerce_jet(jet: Jet, min_len: int, name: str):
    if len(jet) < min_len:
        raise ValueError(f"{name} too short: need at least {min_len} entries")
    return [v if isinstance(v, Interval) else _as_fraction(v) for v in jet]


def _exact_jet(jet: ExactJet, min_len: int, name: str) -> List[Fraction]:
    out = _coerce_jet(jet, min_len, name)
    if any(isinstance(v, Interval) for v in out):
        raise TypeError(f"{name} must hold exact rationals, got an Interval")
    return out


def composite_derivative(outer_jet: Jet, inner_jet: Jet, n: int) -> Scalar:
    """n-th derivative of f(g(x)) from the jets of f at g(x) and of g at x.

    Uses the shifted-series form: the inner factor of order k is the n-th
    coefficient of (g(x+t) - g(x))**k, computed by truncated convolution.
    """
    if n < 1:
        raise ValueError("derivative order n must be >= 1")
    outer = _coerce_jet(outer_jet, n + 1, "outer jet")
    inner = _coerce_jet(inner_jet, n + 1, "inner jet")
    exact = all(isinstance(v, Fraction) for v in outer[: n + 1] + inner[: n + 1])
    h = [inner[j] / factorial(j) for j in range(1, n + 1)]
    # powers of the shifted inner series, truncated at order n
    power = list(h)
    total = Fraction(0) if exact else Interval.point(0)
    nfact = factorial(n)
    for k in range(1, n + 1):
        if k > 1:
            new = [Fraction(0)] * n  # index j-1 holds the t**j coefficient
            for i in range(k - 1, n):  # previous power has valuation k-1
                ci = power[i - 1]
                if isinstance(ci, Fraction) and ci == 0:
                    continue
                for j in range(1, n - i + 1):
                    new[i + j - 1] = new[i + j - 1] + ci * h[j - 1]
            power = new
        contrib = outer[k] * Fraction(nfact, factorial(k)) * power[n - 1]
        total = total + contrib
    if isinstance(total, Fraction):
        return Scalar.from_fraction(total)
    return Scalar.from_interval(total)


def taylor_remainder_reconstruct(
    f_jet_at_0: ExactJet,
    F_jet_at_xi: ExactJet,
    p: int,
    xi: RationalLike,
    x: Optional[RationalLike] = None,
) -> Scalar:
    """Reconstruct f^(n)(x) at x = xi**p from the derivative jet of
    F(t) = f(t**p) at xi and the first n derivatives of f at 0.

    n is the top order of the F jet.  Splitting F into the substituted Taylor
    polynomial P and remainder R, the n-th derivative of f at x equals
    sum_{k=1..n} R^(k)(xi) * alpha_k^(n)(x, x), which is exact rational
    arithmetic throughout since x**(1/p) = xi is rational.
    """
    if p < 1:
        raise ValueError("power p must be >= 1")
    n = len(F_jet_at_xi) - 1
    if n < 1:
        raise ValueError("F jet must carry derivatives up to order n >= 1")
    xiq = _as_fraction(xi)
    if xiq <= 0:
        raise ValueError("xi must be positive")
    if x is not None and _as_fraction(x) != xiq ** p:
        raise ValueError(f"inconsistent xi/x: expected x = xi**{p} = {xiq ** p}")
    f0 = _exact_jet(f_jet_at_0, n, "f jet at 0")
    Fj = _exact_jet(F_jet_at_xi, n + 1, "F jet at xi")

    # derivatives of P(t) = sum_{j<n} f^(j)(0) t**(p j) / j! at xi; the j = 0
    # term is constant, so f^(0)(0) never enters.  The coefficients
    # f^(j)(0) / j! are integers c_j over one denominator
    cs = [f0[j] / factorial(j) for j in range(1, n)]
    cden = math.lcm(*(c.denominator for c in cs))
    cs = [0] + [c.numerator * (cden // c.denominator) for c in cs]
    xn, xd = xiq.numerator, xiq.denominator
    yn, yd = xn ** p, xd ** p

    def P_deriv(k: int) -> Fraction:
        # the terms j >= j0 have t-degree p j >= k: xi**r times a polynomial
        # in y = xi**p, evaluated by Horner's rule in integers
        j0 = -(-k // p)
        r = p * j0 - k
        acc, scale = 0, 1
        for j in range(n - 1, j0 - 1, -1):
            e = p * j
            acc = acc * yn + cs[j] * (factorial(e) // factorial(e - k)) * scale
            scale *= yd
        if scale == 1:
            return Fraction(0)
        return Fraction(acc * xn ** r, cden * (scale // yd) * xd ** r)

    root = _binomial_root_series(p, n) if p >= 2 else TruncatedPowerSeries(
        (Fraction(1),) + (Fraction(0),) * (n - 1), 1, n
    )
    power = root
    total = Fraction(0)
    nfact = factorial(n)
    for k in range(1, n + 1):
        if k > 1:
            power = power * root
        b_n = power.coeff(n) / factorial(k)
        alpha = nfact * b_n * xiq ** (-(p * n - k))
        R_k = Fj[k] - P_deriv(k)
        total += R_k * alpha
    return Scalar.from_fraction(total)
