"""Extremal oscillating series with certified truncation, the C_p family,
and class-norm estimation over the models of ``parse_model_spec``.

The central object is the series F built from a weight sequence with
log-convex derived values: term k is M'_k / (2 m_k)**k times an oscillator
in 2 m_k xi (cosine, or its p-fold analogue C_p).  Term-wise n-th
derivatives are M'_k (2 m_k)**(n-k) times a shifted oscillator of size at
most 1, and truncating at K >= n leaves a tail below M'_n times
``BangFunction.relative_tail(n)``: the classical geometric 2**(n-K+1), from
m_k nondecreasing alone, or, where the family oracle certifies M log-convex
globally, the sharper 2**(n-K) (K+1)! / (n! (K+2)**(K+1-n)), at most half of
it and far less for large K.  Either bound dictates two restrictions
enforced here:

* the ratio sequence m_k must be certified nondecreasing on [0, K] at
  construction (with a family oracle recording whether log-convexity is
  known globally, as for the iterated-log families);
* the C_p oscillator is only evaluated at xi = 0.  Its derivative bound
  |C_p^(n)| <= e holds on [-1, 1] only, and for |xi| > 0 the arguments
  2 m_k xi eventually leave every bounded interval, so no certified tail
  exists away from the origin.  At xi = 0 the derivatives are exactly 0 or
  1 and both tail bounds apply unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Optional, Sequence, Tuple

from .comb import composite_derivative
from .scalar import (
    DEFAULT_CONFIG,
    Interval,
    PrecisionError,
    RationalLike,
    Scalar,
    ScalarConfig,
    _as_fraction,
    _fraction_from_mpf_tuple,
    _rounded_ratio,
    iv_cos_sin,
    iv_e,
    make_scalar,
    outward_pow_product,
    refine,
)
from .seqcore import (
    FAILS,
    INCONCLUSIVE,
    SequenceError,
    Trend,
    Verdict,
    WeightSequence,
    Witness,
    _log_convex_global_oracle,
    is_log_convex,
)
from .spec import ConfigError, RunConfig, _split_top_level, parse_fraction


class GateError(SequenceError):
    """The construction gate certified that the derived sequence is not
    log-convex on [1, K].  Every other refusal of a ``BangFunction`` is a
    plain ``SequenceError`` about its parameters or the sequence itself."""


# -- the C_p family --------------------------------------------------------------


def _cp_series_interval(p: int, n: int, x: Fraction, bits: int) -> Interval:
    """Enclosure of the n-th derivative of C_p at x: the series sum over j
    with j p >= n of x**(jp-n) / (jp-n)!, truncated before the term of
    degree m once the factorial tail majorant 2 X**m / m! with
    X = max(1, |x|) is small enough.  The majorant bounds the sum of
    |x|**l / l! over l >= m, which is valid once m + 1 >= 2 X.

    The sum runs on integers over the common denominator xd**m * m! of its
    last term, x = xn / xd, and the stop test compares integers too."""
    xn, xd = x.numerator, x.denominator
    big = abs(xn) > xd  # X = |x|; otherwise X = 1
    m = -n % p  # first degree jp - n >= 0
    fact = factorial(m)
    xpow = xn ** m
    den = xd ** m * fact
    num = xpow  # the partial sum is num / den
    while True:
        step = 1
        for i in range(m + 1, m + p + 1):
            step *= i
        m += p
        fact *= step
        xpow *= xn ** p
        scale = xd ** p * step
        den_next = den * scale
        # the tail 2 X**m / m! is 2 tail_num / tail_den
        tail_num, tail_den = (abs(xpow), den_next) if big else (1, fact)
        if tail_num << (bits + 9) <= tail_den and (not big or (m + 1) * xd >= 2 * abs(xn)):
            break
        num = num * scale + xpow
        den = den_next
    total = Fraction(num, den)
    tail = Fraction(2 * tail_num, tail_den)
    if x >= 0 or (p % 2 == 0 and n % 2 == 0):
        return Interval(total, total + tail)
    if p % 2 == 0:
        # even p, x < 0, odd n: every term x**(jp-n) is negative
        return Interval(total - tail, total)
    return Interval(total - tail, total + tail)


def cp_derivative(
    p: int, n: int, x: RationalLike, cfg: ScalarConfig = DEFAULT_CONFIG
) -> Scalar:
    """n-th derivative of C_p at x in [-1, 1], term-wise with certified tail;
    n = 0 is C_p(x) = sum x**(jp) / (jp)!  (p = 1: exp, p = 2: cosh)."""
    if p < 1:
        raise ValueError("oscillator power p must be >= 1")
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    xq = _as_fraction(x)
    if not -1 <= xq <= 1:
        raise ValueError("C_p evaluation is supported on [-1, 1]")
    if xq == 0:
        return make_scalar(cfg, Fraction(1 if n % p == 0 else 0))
    return make_scalar(cfg, None, lambda bits: _cp_series_interval(p, n, xq, bits))


def cp_bound_check(
    p: int,
    n_max: int,
    grid: Sequence[RationalLike],
    cfg: ScalarConfig = DEFAULT_CONFIG,
) -> Verdict:
    """Certified |C_p^(n)(x)| <= e for n <= n_max and every x in [-1, 1].

    For p >= 2 the bound is decided once per order, at a majorant that does
    not depend on x: |C_p^(n)(x)| is at most the sum over l = -n (mod p) of
    |x|**l / l!, which for |x| <= 1 is at most C_p^(n)(1).  The grid is only
    validated; a Fails names x = 1, where the majorant is attained.

    For p = 1 the derivative is exp itself and the bound degenerates to the
    equality e**1 = e at x = 1; monotonicity of exp gives it on all of
    [-1, 1] at once.
    """
    if p < 1:
        raise ValueError("oscillator power p must be >= 1")
    window = (0, n_max)
    if any(not -1 <= _as_fraction(x) <= 1 for x in grid):
        raise ValueError("grid points must lie in [-1, 1]")
    if p == 1:
        return Verdict.holds(
            window,
            scope="global",
            provenance="exp is monotone: e**x <= e exactly when x <= 1",
        )
    for n in range(n_max + 1):

        def decide(bits: int) -> Optional[bool]:
            enc = _cp_series_interval(p, n, Fraction(1), bits)
            e = iv_e(bits)
            if enc.hi <= e.lo:
                return True
            if enc.lo > e.hi:
                return False
            return None

        holds = refine(decide, cfg)
        if holds is False:
            return Verdict.fails(window, Witness(n, ("x=1",)))
        if holds is None:
            return Verdict.inconclusive(
                window, Trend(note=f"n={n}, x=1 unresolved at the precision cap")
            )
    return Verdict.holds(window)


# -- exact dyadic term arithmetic -------------------------------------------------

Dyadic = Tuple[int, int, int]  # the interval [lo * 2**exp, hi * 2**exp], lo <= hi


def _dyadic(iv: Interval) -> Dyadic:
    """Integer mantissas at a common binary exponent for an interval whose
    endpoints are dyadic rationals; any other endpoint raises."""
    lo, hi = iv.lo, iv.hi
    dlo, dhi = lo.denominator, hi.denominator
    if dlo & (dlo - 1) or dhi & (dhi - 1):
        raise ValueError(f"interval {iv!r} has an endpoint that is not a dyadic rational")
    # q = num / 2**(d.bit_length() - 1) for its denominator d
    slo, shi = dlo.bit_length(), dhi.bit_length()
    shift = max(slo, shi)
    return lo.numerator << (shift - slo), hi.numerator << (shift - shi), 1 - shift


def _dyadic_sum(terms: Sequence[Dyadic]) -> Interval:
    """Exact sum: the endpoint sums are integer sums at the smallest exponent
    among the terms."""
    if not terms:
        return Interval.point(0)
    e0 = min(e for _, _, e in terms)
    lo = sum(t_lo << (e - e0) for t_lo, _, e in terms)
    hi = sum(t_hi << (e - e0) for _, t_hi, e in terms)
    if e0 >= 0:
        return Interval(Fraction(lo << e0), Fraction(hi << e0))
    return Interval(Fraction(lo, 1 << -e0), Fraction(hi, 1 << -e0))


# -- Bang-type series -------------------------------------------------------------


def _relative_tail(n: int, K: int, log_convex: bool) -> Fraction:
    """``BangFunction.relative_tail`` at truncation K >= n: the sharper bound
    when M is log-convex globally, the classical one otherwise."""
    if not log_convex:
        return Fraction(2) ** (n - K + 1)
    return Fraction(factorial(K + 1), factorial(n) * (K + 2) ** (K + 1 - n) << (K - n))


def _truncation_index(n: int, tau: Fraction, log_convex: bool) -> int:
    """The smallest K >= n with ``_relative_tail(n, K, log_convex) <= tau``,
    by doubling and then bisection: the bound falls as K grows."""
    lo, hi = n - 1, n  # K = lo misses the target (or lies below n)
    while _relative_tail(n, hi, log_convex) > tau:
        lo, hi = hi, 2 * hi - n + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _relative_tail(n, mid, log_convex) <= tau else (mid, hi)
    return hi


class BangFunction:
    """Truncated extremal series over a weight sequence with log-convex
    derived values.

    The oscillator is fixed by ``p``: cosine for p = 2 (``variant`` "cos"),
    C_p otherwise ("cp").  ``max_order`` is the largest derivative order
    evaluations will request; the truncation index K is the smallest one at
    which ``relative_tail(max_order)``, and with it the relative tail at
    every n <= max_order, is at most ``tail_target`` (or pass K explicitly).
    Construction certifies m_k nondecreasing on [0, K]: a certified
    violation raises ``GateError`` and an unresolved gate ``PrecisionError``.
    The memoized enclosures belong to ``seq``, in its ``memo``: M'_k,
    2 m_k, the coefficients M'_k (2 m_k)**(n-k) and the oscillator values
    at 2 m_k xi depend on the sequence and (k, n, xi, bits) alone, not on
    p, K or the tail target, so every series built on the same sequence
    object shares them, and they are freed with it.  The memo also keeps,
    under ("gate", cfg), the largest K whose construction gate Held at cfg.
    """

    def __init__(
        self,
        seq: WeightSequence,
        p: int = 2,
        max_order: int = 12,
        tail_target: RationalLike = Fraction(1, 2 ** 64),
        K: Optional[int] = None,
        cfg: ScalarConfig = DEFAULT_CONFIG,
    ):
        if p < 1:
            raise SequenceError("oscillator power p must be >= 1")
        self.seq = seq
        self.p = p
        self.variant = "cos" if p == 2 else "cp"
        tau = _as_fraction(tail_target)
        if not 0 < tau < 1:
            raise SequenceError("tail target must lie in (0, 1)")
        self.tail_target = tau
        if max_order < 0:
            raise SequenceError("max_order must be nonnegative")
        self.max_order = max_order
        oracle = _log_convex_global_oracle(seq)
        self.tail_scope = "global" if oracle is not None else "window"
        self.tail_provenance = oracle
        self.K = K if K is not None else _truncation_index(max_order, tau, oracle is not None)
        if self.K < max_order:
            raise SequenceError("truncation K must be at least max_order")
        memo = seq.memo
        # a gate on [1, K] decides a prefix of the comparisons of any gate
        # on a longer window, so it Holds wherever that one Held
        if self.K > memo.get(("gate", cfg), 0):
            # m_k nondecreasing on [0, K] is M' log-convex on [1, K]
            gate = is_log_convex(seq, (1, self.K), "derived", cfg)
            if gate.outcome == INCONCLUSIVE:
                raise PrecisionError(f"ratio monotonicity unresolved: {gate.trend.note}")
            if gate.outcome == FAILS:
                k = gate.witness.index - 1
                raise GateError(
                    f"derived sequence is not log-convex: m_{k} > m_{k + 1}; "
                    "the truncation tail bound needs nondecreasing ratios"
                )
            memo["gate", cfg] = self.K

    # -- enclosures, memoized on the sequence ---------------------------------

    def _mprime(self, k: int, bits: int) -> Interval:
        memo, key = self.seq.memo, ("mp", k, bits)
        if key not in memo:
            memo[key] = self.seq.enclosure(k, bits) * factorial(k)
        return memo[key]

    def _twice_ratio(self, k: int, bits: int) -> Interval:
        """2 m_k = (2k + 2) M_{k+1} / M_k, rounded outward to bits + 8 bits."""
        memo, key = self.seq.memo, ("2m", k, bits)
        if key not in memo:
            num = self.seq.enclosure(k + 1, bits) * (2 * k + 2)
            iv = outward_pow_product(num, 1, self.seq.enclosure(k, bits), -1, bits + 8)
            # floor rounding keeps the sign of the lower endpoint
            if not iv.strictly_positive():
                raise PrecisionError(f"ratio m_{k} not certified positive at {bits} bits")
            memo[key] = iv
        return memo[key]

    def _trig(self, k: int, xi: Fraction, bits: int) -> Tuple[Dyadic, ...]:
        """The oscillator derivatives (cos, -sin, -cos, sin) at 2 m_k xi,
        indexed by the order mod 4."""
        # integer key parts: hashing a Fraction costs a modular inverse
        memo, key = self.seq.memo, ("trig", k, xi.numerator, xi.denominator, bits)
        if key not in memo:
            c, s = iv_cos_sin(self._twice_ratio(k, bits) * xi, bits)
            (c_lo, c_hi, ce), (s_lo, s_hi, se) = _dyadic(c), _dyadic(s)
            memo[key] = (c_lo, c_hi, ce), (-s_hi, -s_lo, se), (-c_hi, -c_lo, ce), (s_lo, s_hi, se)
        return memo[key]

    def relative_tail(self, n: int) -> Fraction:
        """Certified bound, relative to M'_n, on the terms k > K of the
        order-n derivative, for n <= K.

        Term k is t_k = M'_k (2 m_k)**(n-k), with m_k = M'_{k+1} / M'_k,
        times an oscillator derivative of size at most 1: cos and sin
        anywhere, C_p at xi = 0, where it is 0 or 1.  As M'_k is M'_n times
        m_n ... m_{k-1}, t_k = M'_n 2**(n-k) prod_{j=n}^{k-1} m_j / m_k.

        * Scope "window": 2**(n-K+1).  With m nondecreasing, which the gate
          certifies on [0, K] only, every quotient m_j / m_k is at most 1,
          so t_k <= M'_n 2**(n-k), whose sum over k > K is M'_n 2**(n-K);
          the margin keeps a factor 2 on top.
        * Scope "global", where the family oracle certifies M log-convex:
          2**(n-K) (K+1)! / (n! (K+2)**(K+1-n)).  Log-convexity makes
          M_{j+1} / M_j nondecreasing, and m_j = (j+1) M_{j+1} / M_j, so
          m_j / m_k <= (j+1) / (k+1) for j < k and t_k is at most
          b_k = M'_n 2**(n-k) k! / (n! (k+1)**(k-n)).  Then
          b_{k+1} / b_k = ((k+1) / (k+2))**(k+1-n) / 2 <= 1/2, so the sum
          over k > K is at most 2 b_{K+1}, which is this bound.  It is the
          classical one times prod_{j=n+1}^{K+1} j / (K+2) / 2, so at most
          half of it.

        Both bounds grow with n, so the target met at ``max_order`` is met
        at every lower order."""
        return _relative_tail(n, self.K, self.tail_scope == "global")

    def describe(self) -> str:
        return (
            f"bang({self.seq.describe()}, p={self.p}, variant={self.variant}, K={self.K})"
        )


# the neutral second factor of outward_pow_product
_ONE = Interval.point(1)


def _bang_coef(B: BangFunction, n: int, k: int, bits: int) -> Dyadic:
    """M'_k (2 m_k)**(n-k), compressed; independent of the evaluation point.

    Both factors are positive, so the product's endpoints are the products
    of theirs, each rounded once to ``bits + 8`` bits from its unreduced
    integer quotient.  Its lower endpoint is positive too."""
    memo, key = B.seq.memo, ("coef", n, k, bits)
    if key not in memo:
        # compress after the power: (2 m_k)**(n-k) has k-scaled denominators
        powed = outward_pow_product(B._twice_ratio(k, bits), n - k, _ONE, 0, bits + 8)
        mp = B._mprime(k, bits)
        if mp.lo.numerator <= 0:
            raise SequenceError(f"the enclosure of M'_{k} of {B.seq.describe()} is not positive")
        ends = [
            _rounded_ratio(m.numerator * w.numerator, m.denominator * w.denominator, bits + 8, rnd)
            for m, w, rnd in ((mp.lo, powed.lo, "f"), (mp.hi, powed.hi, "c"))
        ]
        memo[key] = _dyadic(Interval(*map(_fraction_from_mpf_tuple, ends)))
    return memo[key]


def _bang_sum(B: BangFunction, n: int, xi: Fraction, bits: int) -> Interval:
    """Exact sum of the term enclosures of order n at xi.

    Term k is the coefficient [a, b] 2**e of ``_bang_coef``, with a > 0,
    times the oscillator derivative [c, d] 2**f, so its endpoints are a c
    or b c and b d or a d, by the signs of c and d.  At xi = 0 that
    derivative is one number for every k: 1, 0 or -1 (the C_p variant is
    evaluated at xi = 0 only)."""
    if xi == 0 or B.variant == "cp":
        osc = int(n % B.p == 0) if B.variant == "cp" else (1, 0, -1, 0)[n % 4]
        if osc == 0:
            return Interval.point(0)
        total = _dyadic_sum([_bang_coef(B, n, k, bits) for k in range(B.K + 1)])
        return total if osc > 0 else -total
    r = n % 4
    terms = []
    for k in range(B.K + 1):
        a, b, e = _bang_coef(B, n, k, bits)
        c, d, f = B._trig(k, xi, bits)[r]
        terms.append((a * c if c >= 0 else b * c, b * d if d >= 0 else a * d, e + f))
    return _dyadic_sum(terms)


def _bang_majorant(B: BangFunction, n: int, bits: int) -> Interval:
    """Enclosure of S_n + tail_n: S_n is the sum over k <= K of
    |M'_k (2 m_k)**(n-k)|, and tail_n = ``B.relative_tail(n)`` M'_n the tail
    that ``bang_derivative`` widens by: the classical 2**(n-K+1) M'_n, or the
    sharper bound where M is log-convex globally.

    Every term of the order-n derivative is such a coefficient times an
    oscillator derivative of size at most 1 (cos and sin anywhere; the C_p
    derivatives at xi = 0, where they are 0 or 1), so S_n + tail_n bounds
    |F^(n)(xi)| at every point the series accepts.  The coefficients are
    positive, so S_n sums them as they are."""
    S = _dyadic_sum([_bang_coef(B, n, k, bits) for k in range(B.K + 1)])
    return S + B._mprime(n, bits) * B.relative_tail(n)


def _bang_point(B: BangFunction, xi: RationalLike) -> Fraction:
    """xi as a Fraction, refused unless the series is certified there."""
    xq = _as_fraction(xi)
    if B.variant == "cp":
        if xq != 0:
            raise ValueError(
                "the C_p variant is certified at xi = 0 only: its derivative "
                "bound holds on [-1, 1] while the oscillator arguments grow "
                "without bound"
            )
    elif not -1 <= xq <= 1:
        raise ValueError("evaluation is supported on [-1, 1]")
    return xq


def bang_derivative(
    B: BangFunction, n: int, xi: RationalLike, cfg: ScalarConfig = DEFAULT_CONFIG
) -> Scalar:
    """Term-wise n-th derivative of the truncated series at xi, widened by
    the certified tail M'_n * ``B.relative_tail(n)``: the classical
    2**(n-K+1), or the sharper bound where M is log-convex globally.

    The cosine variant accepts xi in [-1, 1]; the C_p variant only xi = 0
    (no certified tail exists elsewhere; see the module docstring).
    """
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    if n > B.K:
        raise ValueError(f"derivative order {n} exceeds the truncation K={B.K}")
    xq = _bang_point(B, xi)

    def attempt(bits: int) -> Optional[Interval]:
        try:
            total = _bang_sum(B, n, xq, bits)
            tail = B.relative_tail(n) * B._mprime(n, bits).hi
        except PrecisionError:
            return None
        return total.widen(tail)

    def enclosure(bits: int) -> Interval:
        iv = refine(attempt, cfg.with_bits(bits))
        if iv is None:
            raise PrecisionError(f"term enclosures at order {n} stayed unresolved")
        return iv

    return make_scalar(cfg, None, enclosure)


def bang_lower_bound_certify(
    B: BangFunction, n: int, cfg: ScalarConfig = DEFAULT_CONFIG
) -> Verdict:
    """Certified |F^(pn)(0)| >= M'_{pn}.

    At xi = 0 every term of order pn has the same sign and the k = pn term
    is exactly M'_{pn}, so partial sums of the truncated series are valid
    lower bounds; the verdict is Holds once the remaining terms are
    certified nonnegative."""
    if n < 0:
        raise ValueError("order index must be nonnegative")
    q = B.p * n
    if q > B.K:
        raise ValueError(f"need truncation K >= {q}")
    window = (n, n)

    def decide(bits: int) -> Optional[Verdict]:
        try:
            total = abs(_bang_sum(B, q, Fraction(0), bits))
            target = B._mprime(q, bits)
        except PrecisionError:
            return None
        if total.lo >= target.hi:
            return Verdict.holds(
                window,
                provenance=(
                    "same-sign terms at 0: the partial sum bounds |F| from "
                    "below and contains the k = pn term M'_{pn} itself"
                ),
            )
        return None

    return refine(decide, cfg) or Verdict.inconclusive(
        window, Trend(note=f"lower bound at order {q} unresolved at the precision cap")
    )


def induced_f_derivative(
    B: BangFunction, n: int, cfg: ScalarConfig = DEFAULT_CONFIG
) -> Tuple[Scalar, Verdict]:
    """The germ derivative f^(n)(0) = n!/(pn)! * F^(pn)(0), with the
    certified comparison |f^(n)(0)| >= n! M'_{pn} / (pn)!."""
    q = B.p * n
    scale = Fraction(factorial(n), factorial(q))
    scalar = make_scalar(
        cfg,
        None,
        lambda bits: bang_derivative(
            B, q, 0, cfg.with_mode("interval").with_bits(bits)
        ).interval()
        * scale,
    )
    verdict = bang_lower_bound_certify(B, n, cfg)
    if verdict.ok:
        verdict = Verdict.holds(
            (n, n),
            provenance=(
                "scaling the certified |F^(pn)(0)| >= M'_{pn} by the positive "
                "factor n!/(pn)!"
            ),
        )
    return scalar, verdict


def theorem1_bound(
    seq: WeightSequence,
    A: RationalLike,
    p: int,
    n: int,
    cfg: ScalarConfig = DEFAULT_CONFIG,
) -> Scalar:
    """The power-substitution derivative estimate
    n * (2e)**n * (e A)**(p n) * M'_{p n} / n**((p-1) n), certified."""
    Aq = _as_fraction(A)
    if Aq <= 0:
        raise ValueError("growth constant A must be positive")
    if p < 2 or n < 1:
        raise ValueError("need p >= 2 and n >= 1")

    def enclosure(bits: int) -> Interval:
        e = iv_e(bits)
        two_e_n = Interval(2 * e.lo, 2 * e.hi).pow_int(n)
        eA_pn = (e * Aq).pow_int(p * n)
        mp = seq.enclosure(p * n, bits) * factorial(p * n)
        return two_e_n * eA_pn * mp * Fraction(n, n ** ((p - 1) * n))

    return make_scalar(cfg, None, enclosure)


def _envelope_bound(B: BangFunction, n: int, bits: int) -> Interval:
    """The growth envelope 2**(n+1) M'_n, from the cached M'_n."""
    return B._mprime(n, bits) * 2 ** (n + 1)


def bang_envelope_check(
    B: BangFunction,
    n_max: int,
    grid: Sequence[RationalLike],
    cfg: ScalarConfig = DEFAULT_CONFIG,
) -> Verdict:
    """Certified |F^(n)(xi)| <= 2**(n+1) M'_n for n <= n_max at every xi the
    series accepts, the grid included.

    The proof is the triangle inequality.  Term k of the order-n derivative
    is M'_k (2 m_k)**(n-k) times an oscillator derivative of size at most 1,
    so |F^(n)(xi)| <= S_n + tail_n, with S_n the sum of the coefficient
    sizes over k <= K and tail_n = ``B.relative_tail(n)`` M'_n the certified
    bound on the terms k > K (at most 2**(n-K+1) M'_n, less where M is
    log-convex globally).  Log-convexity puts every term below
    2**(n-k) M'_n, so S_n + tail_n <= 2**(n+1) M'_n is expected, and it is
    certified once per order from the cached coefficients; no trig runs.

    The grid is only a fallback: an order the majorant does not decide is
    evaluated at every grid point, and every Fails or Inconclusive, with its
    xi witness, comes from there.
    """
    window = (0, n_max)
    xs = [_bang_point(B, x) for x in grid]
    for n in range(n_max + 1):

        def point_free(bits: int) -> Optional[bool]:
            try:
                lhs = _bang_majorant(B, n, bits)
            except PrecisionError:
                return None
            rhs = _envelope_bound(B, n, bits)
            if lhs.hi <= rhs.lo:
                return True
            if lhs.lo > rhs.hi:
                return False  # the majorant exceeds the envelope: ask the grid
            return None

        # the tail bounds need n <= K; above it the grid refuses the order
        if n <= B.K and refine(point_free, cfg):
            continue
        verdict = _envelope_on_grid(B, n, xs, window, cfg)
        if verdict is not None:
            return verdict
    return Verdict.holds(window)


def _envelope_on_grid(
    B: BangFunction,
    n: int,
    xs: Sequence[Fraction],
    window: Tuple[int, int],
    cfg: ScalarConfig,
) -> Optional[Verdict]:
    """The envelope at order n, point by point: the first Fails or
    Inconclusive on the grid, or None when every point holds."""
    for x in xs:

        def decide(bits: int) -> Optional[bool]:
            enc = abs(
                bang_derivative(B, n, x, cfg.with_mode("interval").with_bits(bits)).interval()
            )
            rhs = _envelope_bound(B, n, bits)
            if enc.hi <= rhs.lo:
                return True
            if enc.lo > rhs.hi:
                return False
            return None

        holds = refine(decide, cfg)
        if holds is False:
            return Verdict.fails(window, Witness(n, (f"xi={x}",)))
        if holds is None:
            return Verdict.inconclusive(
                window, Trend(note=f"n={n}, xi={x} unresolved at the precision cap")
            )
    return None


# -- differentiable models and the class norm --------------------------------------


class PolynomialModel:
    """Exact polynomial model around 0: coefficient list of f = sum c_j x**j."""

    def __init__(self, coeffs: Sequence[RationalLike]):
        self.coeffs = tuple(_as_fraction(c) for c in coeffs)

    def derivative_enclosure(self, n: int, x: Fraction, bits: int) -> Interval:
        total = Fraction(0)
        for j in range(n, len(self.coeffs)):
            total += self.coeffs[j] * Fraction(factorial(j), factorial(j - n)) * x ** (j - n)
        return Interval.point(total)

    def describe(self) -> str:
        return f"polynomial(degree={len(self.coeffs) - 1})"


class CpModel:
    """The C_p oscillator as a model; p = 1 is exp."""

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("oscillator power p must be >= 1")
        self.p = p

    def derivative_enclosure(self, n: int, x: Fraction, bits: int) -> Interval:
        if x == 0:
            return Interval.point(1 if n % self.p == 0 else 0)
        return _cp_series_interval(self.p, n, x, bits)

    def describe(self) -> str:
        return f"cp({self.p})"


class BangModel:
    """A truncated extremal series as a model.  The cosine series (p = 2)
    is evaluated on [-1, 1]; the C_p series only at xi = 0."""

    def __init__(self, B: BangFunction):
        self.B = B

    def derivative_enclosure(self, n: int, x: Fraction, bits: int) -> Interval:
        cfg = ScalarConfig(mode="interval", bits=bits)
        return bang_derivative(self.B, n, x, cfg).interval()

    def describe(self) -> str:
        return self.B.describe()


class PowerCompositeModel:
    """h(x) = base(x**p): derivatives by the composite-derivative formula
    with the exact inner jet of x -> x**p."""

    def __init__(self, base, p: int):
        if p < 1:
            raise ValueError("substitution power p must be >= 1")
        self.base = base
        self.p = p

    def derivative_enclosure(self, n: int, x: Fraction, bits: int) -> Interval:
        if n == 0:
            return self.base.derivative_enclosure(0, x ** self.p, bits)
        inner = [
            Fraction(factorial(self.p), factorial(self.p - j)) * x ** (self.p - j)
            if j <= self.p
            else Fraction(0)
            for j in range(n + 1)
        ]
        inner[0] = x ** self.p
        outer = [
            self.base.derivative_enclosure(k, x ** self.p, bits) for k in range(n + 1)
        ]
        return composite_derivative(outer, inner, n).interval()

    def describe(self) -> str:
        return f"{self.base.describe()} o x**{self.p}"


def class_norm(
    model,
    seq: WeightSequence,
    interval: Tuple[RationalLike, RationalLike],
    r: RationalLike,
    n_max: int,
    grid: int,
    cfg: ScalarConfig = DEFAULT_CONFIG,
) -> Scalar:
    """Window-relative lower estimate of the class norm
    sup |f^(n)(x)| / (r**n n! M_n) over n <= n_max and x on the grid of
    ``grid`` equally spaced points of the interval, endpoints included.

    The returned enclosure brackets the maximum over the finite sample; the
    true norm is a sup over all n and x, so this is a certified lower bound
    of it, never a finiteness proof.
    """
    lo, hi = _as_fraction(interval[0]), _as_fraction(interval[1])
    if lo > hi:
        raise ValueError("interval endpoints out of order")
    rq = _as_fraction(r)
    if rq <= 0:
        raise ValueError("norm radius r must be positive")
    if n_max < 0:
        raise ValueError("derivative order bound n_max must be nonnegative")
    if grid < 2:
        raise ValueError("grid needs at least two points")
    xs = [lo + (hi - lo) * Fraction(i, grid - 1) for i in range(grid)]

    def sweep(bits: int) -> Interval:
        best: Optional[Interval] = None
        for n in range(n_max + 1):
            denom = seq.enclosure(n, bits) * (factorial(n) * rq ** n)
            for x in xs:
                d = abs(model.derivative_enclosure(n, x, bits))
                val = d / denom
                best = val if best is None else Interval(
                    max(best.lo, val.lo), max(best.hi, val.hi)
                )
        return best

    return make_scalar(cfg, None, sweep)


def parse_model_spec(spec: str, seq: WeightSequence, config: RunConfig):
    """Model expressions: poly(c0,...), cp(p), bang(p), compose(<model>,p)."""
    s = spec.strip()
    head, _, rest = s.partition("(")
    if not rest.endswith(")"):
        raise ConfigError(f"unbalanced parentheses in {spec!r}")
    args = _split_top_level(rest[:-1])
    try:
        if head == "poly":
            return PolynomialModel([parse_fraction(a) for a in args])
        if head == "cp":
            (p,) = args
            return CpModel(int(p))
        if head == "bang":
            (p,) = args
            B = BangFunction(
                seq, p=int(p), max_order=config.envelope_n_max,
                tail_target=config.tail_target, cfg=ScalarConfig(bits=config.precision),
            )
            return BangModel(B)
        if head == "compose":
            inner, p = args
            return PowerCompositeModel(parse_model_spec(inner, seq, config), int(p))
    except (ValueError, SequenceError) as exc:
        raise ConfigError(f"invalid model spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown model {head!r}")
