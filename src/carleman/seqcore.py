"""Weight sequences and certified pointwise predicates.

A weight sequence is a strictly positive sequence M with M_0 = 1.  The
derived sequence is M'_n = n! * M_n and the ratio sequence is
m_k = M'_{k+1} / M'_k.  Built-in families:

* ``Analytic``       M_n = 1                        (the analytic class)
* ``Gevrey(s)``      M_n = (n!)**s
* ``IteratedLog(k)`` M_n = L(s+n)**(s+n) / L(s)**s  with L the k-fold log
                     and s a shift keeping L positive
* ``PowerSub(b, p)`` M_n = b_{p n}
* ``Custom``         finite table or generator rule (normalized to M_0 = 1)

Predicates return three-valued ``Verdict`` objects whose Holds/Fails
outcomes are certified: comparisons are exact whenever every operand has
an exact q**(1/d) representation, and otherwise use interval enclosures
with precision refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .scalar import (
    DEFAULT_CONFIG,
    DisplayFloat,
    Interval,
    RationalLike,
    Scalar,
    ScalarConfig,
    _as_fraction,
    display_float,
    exact_nth_root,
    fraction_str,
    iv_e,
    iv_exp,
    iv_log_chain,
    iv_pow,
    make_scalar,
    outward_pow_product,
    refine,
    refine_sign,
)

Window = Tuple[int, int]

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

SCOPE_WINDOW = "window"
SCOPE_GLOBAL = "global"


class SequenceError(ValueError):
    """Invalid sequence construction or evaluation request."""


@dataclass(frozen=True)
class Witness:
    """Failure evidence: the first violating index and the values involved."""

    index: int
    values: Tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.values:
            return f"n={self.index}"
        return f"n={self.index}: " + ", ".join(self.values)


@dataclass(frozen=True)
class Trend:
    """Diagnostic data attached to an inconclusive verdict."""

    last: Tuple[Tuple[int, Union[float, DisplayFloat]], ...] = ()
    growth: Union[float, DisplayFloat, None] = None
    note: Optional[str] = None

    def __str__(self) -> str:
        parts = []
        if self.last:
            parts.append("last " + ", ".join(f"({n}, {v:.6g})" for n, v in self.last))
        if self.growth is not None:
            parts.append(f"growth {self.growth:.6g}")
        if self.note:
            parts.append(self.note)
        return "; ".join(parts)


@dataclass(frozen=True)
class Verdict:
    """Three-valued certified outcome over an index window.

    A Holds with scope ``global`` was established by a family oracle; scope
    ``window`` covers only the checked range.  A Fails built by ``fails``
    carries either a witness reproducible by re-evaluation or, for a Fails
    established by a family oracle, scope ``global`` with the oracle's
    provenance.
    """

    outcome: str
    window: Window
    scope: str = SCOPE_WINDOW
    witness: Optional[Witness] = None
    trend: Optional[Trend] = None
    provenance: Optional[str] = None

    @classmethod
    def holds(cls, window, scope=SCOPE_WINDOW, provenance=None) -> "Verdict":
        return cls(HOLDS, tuple(window), scope, provenance=provenance)

    @classmethod
    def fails(
        cls, window, witness: Optional[Witness] = None, provenance=None, scope=SCOPE_WINDOW
    ) -> "Verdict":
        if witness is None and not (scope == SCOPE_GLOBAL and provenance):
            raise ValueError("a Fails needs a witness, or global scope with a provenance")
        return cls(FAILS, tuple(window), scope, witness=witness, provenance=provenance)

    @classmethod
    def inconclusive(cls, window, trend: Optional[Trend] = None, provenance=None) -> "Verdict":
        return cls(INCONCLUSIVE, tuple(window), SCOPE_WINDOW, trend=trend, provenance=provenance)

    @property
    def ok(self) -> bool:
        return self.outcome == HOLDS

    def __str__(self) -> str:
        bits = [f"{self.outcome} on [{self.window[0]}, {self.window[1]}]"]
        if self.outcome == HOLDS:
            bits.append(self.scope)
        if self.witness is not None:
            bits.append(f"witness {self.witness}")
        if self.trend is not None:
            bits.append(str(self.trend))
        if self.provenance:
            bits.append(self.provenance)
        return "; ".join(bits)


def _check_window(window: Window, min_start: int = 0) -> Window:
    a, b = window
    if a > b:
        raise SequenceError(f"empty window {window}")
    if a < min_start:
        raise SequenceError(f"window must start at n >= {min_start}, got {a}")
    return (a, b)


RootRep = Tuple[Fraction, int]  # value == q ** (1/d), q > 0, d >= 1
IntRoot = Tuple[int, int, int]  # (num, den, d): value == (num/den) ** (1/d)


class WeightSequence:
    """Base class.  Subclasses implement ``_root``, the one exact hook: the
    form q**(1/d) of M_n, or None when there is none.  ``exact`` (the value
    when it is rational), the default ``_enclosure`` and the batch of
    integer forms ``_int_forms`` derive from it; sequences without exact
    forms override ``_enclosure``."""

    def __init__(self):
        self._exact_cache = {}
        self._root_cache = {}
        self._enclosure_cache = {}
        self._forms: List[IntRoot] = []
        self._forms_open = True  # False once an index has no form
        # quantities that other layers derive from the sequence, under tuple
        # keys whose head names the quantity; they live as long as it does:
        # ("convex",) maps j to the batch's sign of M_{j-1} M_{j+1} - M_j**2
        # (``_convexity_signs``), and the extremal series of ``bang`` keeps
        # its enclosures and coefficients under "mp", "2m", "coef", "trig"
        # and its truncation gate under "gate"
        self.memo = {}

    # -- representation hooks ------------------------------------------------

    def _root(self, n: int) -> Optional[RootRep]:
        raise NotImplementedError

    def _enclosure(self, n: int, bits: int) -> Interval:
        q = self.exact(n)
        if q is not None:
            return Interval.point(q)
        rep = self.as_root(n)
        if rep is None:
            raise NotImplementedError(f"{type(self).__name__} has no enclosure rule")
        return iv_pow(rep[0], Fraction(1, rep[1]), bits)

    def _int_forms(self, hi: int) -> List[IntRoot]:
        """The forms ``_root`` gives for M_0, M_1, ..., as integer triples
        (num, den, d) in one list kept on the sequence: the longest prefix
        of them that reaches M_hi or goes past it.  The list stops for good
        just before the first index whose ``_root`` gives None or raises.
        It never raises; the callers read every point past it through
        ``as_root``, which raises there as it would without a batch."""
        forms = self._forms
        while self._forms_open and len(forms) <= hi:
            try:
                rep = self._root(len(forms))
            except Exception:  # a user rule can raise anything; as_root re-raises it
                rep = None
            if rep is None:
                self._forms_open = False
            else:
                forms.append((rep[0].numerator, rep[0].denominator, rep[1]))
        return forms

    # -- public accessors ----------------------------------------------------

    def exact(self, n: int) -> Optional[Fraction]:
        self._validate_index(n)
        cache = self._exact_cache
        if n not in cache:
            rep = self.as_root(n)
            if rep is None:
                cache[n] = None
            else:
                q, d = rep
                cache[n] = q if d == 1 else exact_nth_root(q, d)
        return cache[n]

    def as_root(self, n: int) -> Optional[RootRep]:
        cache = self._root_cache
        # only validated indices are stored; the type test keeps 1.0 off the
        # entry for 1
        if type(n) is int and n in cache:
            return cache[n]
        self._validate_index(n)
        rep = cache[n] = self._root(n)
        return rep

    def enclosure(self, n: int, bits: int) -> Interval:
        self._validate_index(n)
        cache = self._enclosure_cache
        if (n, bits) not in cache:
            cache[n, bits] = self._enclosure(n, bits)
        return cache[n, bits]

    def _validate_index(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise SequenceError(f"sequence index must be a nonnegative integer, got {n!r}")

    def describe(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return self.describe()


class Analytic(WeightSequence):
    """M_n = 1 for all n."""

    def _root(self, n: int) -> RootRep:
        return (Fraction(1), 1)

    def describe(self) -> str:
        return "analytic"


class Gevrey(WeightSequence):
    """M_n = (n!)**s for a nonnegative rational s."""

    def __init__(self, s: RationalLike):
        super().__init__()
        self.s = _as_fraction(s)
        if self.s < 0:
            raise SequenceError("Gevrey exponent must be nonnegative")

    def _root(self, n: int) -> RootRep:
        return (Fraction(math.factorial(n) ** self.s.numerator), self.s.denominator)

    def describe(self) -> str:
        return f"gevrey({self.s})"


def _tetration_e(k: int, bits: int) -> Interval:
    """Enclosure of exp applied k-1 times to e (e, e**e, e**(e**e), ...)."""
    x = iv_e(bits)
    for _ in range(k - 1):
        x = iv_exp(x, bits)
    return x


def default_shift(k: int, cfg: ScalarConfig = DEFAULT_CONFIG) -> int:
    """Smallest integer exceeding the k-fold exponential tower of e,
    certified from interval enclosures."""
    if k < 1:
        raise SequenceError("iterated-log depth k must be >= 1")
    if k > 3:
        raise SequenceError(
            "the tower value for k > 3 has millions of digits; pass an explicit offset"
        )

    def decide(bits: int) -> Optional[int]:
        enc = _tetration_e(k, bits)
        m = math.floor(enc.lo)
        if enc.lo > m and enc.hi < m + 1:
            return m + 1
        return None

    shift = refine(decide, cfg)
    if shift is None:
        raise SequenceError(f"could not certify the integer part of the k={k} tower")
    return shift


class IteratedLog(WeightSequence):
    """M_n = L(s+n)**(s+n) / L(s)**s with L the k-fold logarithm.

    The shift s defaults to the smallest integer above the k-fold exponential
    tower of e, which makes the sequence log-convex from the start; smaller
    shifts are accepted as long as L stays positive.  ``from_tower``, decided
    here once, is True for the default shift and for an explicit offset
    certified at or above it, the shifts ``global_family_rule`` covers.
    """

    def __init__(self, k: int, offset: Optional[int] = None, cfg: ScalarConfig = DEFAULT_CONFIG):
        super().__init__()
        if k < 1:
            raise SequenceError("iterated-log depth k must be >= 1")
        self.k = k
        self._base_log = {}  # bits -> (enclosure of L(s), its powers' memo)
        if offset is None:
            self.shift = default_shift(k, cfg)
        else:
            if offset < 0:
                raise SequenceError("offset must be a nonnegative integer")
            self.shift = offset
        self._validate_shift(cfg)
        self.from_tower = offset is None
        if offset is not None and k <= 3:
            try:
                self.from_tower = offset >= default_shift(k)
            except SequenceError:  # an uncertified tower claims nothing
                pass

    def _validate_shift(self, cfg: ScalarConfig):
        def decide(bits: int) -> Optional[bool]:
            try:
                base = iv_log_chain(self.shift, self.k, bits)
            except ValueError as exc:
                raise SequenceError(
                    f"offset {self.shift} leaves the {self.k}-fold log undefined"
                ) from exc
            if base.hi <= 0:
                raise SequenceError(
                    f"offset {self.shift} makes the {self.k}-fold log nonpositive"
                )
            return True if base.lo > 0 else None

        if refine(decide, cfg) is None:
            raise SequenceError(
                f"could not certify positivity of the {self.k}-fold log at offset {self.shift}"
            )

    def _root(self, n: int) -> Optional[RootRep]:
        return (Fraction(1), 1) if n == 0 else None

    def _enclosure(self, n: int, bits: int) -> Interval:
        if n == 0:
            return Interval.point(1)
        s = self.shift
        base = self._base_log.get(bits)
        if base is None:
            base = self._base_log[bits] = (iv_log_chain(s, self.k, bits), {})
        # rounded once to dyadics: the exact power quotient has endpoints
        # about s + n times the size of L's, a gigabit at the default shift
        # of depth 3; the directed powers of L(s)**s are kept per precision
        base_log, memo = base
        return outward_pow_product(
            iv_log_chain(s + n, self.k, bits), s + n, base_log, -s, bits + 8, memo
        )

    def describe(self) -> str:
        return f"iterlog({self.k}, offset={self.shift})"


class PowerSub(WeightSequence):
    """Power substitution: M_n = base_{p n}."""

    def __init__(self, base: WeightSequence, p: int):
        super().__init__()
        if not isinstance(p, int) or p < 1:
            raise SequenceError("power-substitution exponent p must be a positive integer")
        self.base = base
        self.p = p

    def _root(self, n: int) -> Optional[RootRep]:
        return self.base.as_root(self.p * n)

    def _enclosure(self, n: int, bits: int) -> Interval:
        return self.base.enclosure(self.p * n, bits)

    def describe(self) -> str:
        return f"powersub({self.base.describe()}, {self.p})"


def flatten_power_sub(seq: WeightSequence) -> Tuple[WeightSequence, int]:
    """The innermost base of nested power substitutions and the product of
    their exponents: M_n = base_{p n}."""
    p = 1
    while isinstance(seq, PowerSub):
        p *= seq.p
        seq = seq.base
    return seq, p


class Custom(WeightSequence):
    """Finite table or generator rule, normalized so that M_0 = 1."""

    def __init__(
        self,
        table: Optional[Sequence[RationalLike]] = None,
        rule: Optional[Callable[[int], RationalLike]] = None,
        name: str = "custom",
    ):
        super().__init__()
        if (table is None) == (rule is None):
            raise SequenceError("provide exactly one of table or rule")
        self.name = name
        self._rule = rule
        if table is not None:
            vals = tuple(map(_as_fraction, table))
            if not vals:
                raise SequenceError("custom table must be nonempty")
            # decided before normalizing, which turns a negative table positive
            forms = [(v.numerator, v.denominator, 1) for v in vals]
            if min(forms)[0] <= 0:
                raise SequenceError("custom sequence values must be strictly positive")
            if forms[0][:2] != (1, 1):
                vals = tuple(v / vals[0] for v in vals)
                forms = [(v.numerator, v.denominator, 1) for v in vals]
            self._table, self._forms = vals, forms
        else:
            self._table = None
            v0 = _as_fraction(rule(0))
            if v0 <= 0:
                raise SequenceError("custom sequence values must be strictly positive")
            self._norm = v0

    @property
    def length(self) -> Optional[int]:
        return len(self._table) if self._table is not None else None

    def _root(self, n: int) -> RootRep:
        if self._table is not None:
            if n >= len(self._table):
                raise SequenceError(
                    f"index {n} beyond the custom table (length {len(self._table)})"
                )
            return (self._table[n], 1)
        v = _as_fraction(self._rule(n))
        if v <= 0:
            raise SequenceError(f"custom rule produced a nonpositive value at n={n}")
        return (v / self._norm, 1)

    def describe(self) -> str:
        return self.name


# -- certified product comparisons -------------------------------------------

Factor = Tuple[WeightSequence, int, int]  # (sequence, index, positive exponent)


def _scale_parts(scale: RationalLike) -> Tuple[int, int]:
    """Numerator and denominator of an int or Fraction scale, as integers."""
    # the exact type tests skip the ABC machinery behind isinstance
    if type(scale) is int or type(scale) is Fraction or isinstance(scale, (int, Fraction)):
        return scale.numerator, scale.denominator
    raise TypeError(f"expected an exact rational, got {type(scale).__name__}")


def compare_products(
    lhs: Sequence[Factor],
    rhs: Sequence[Factor],
    cfg: ScalarConfig = DEFAULT_CONFIG,
    lhs_scale: RationalLike = 1,
    rhs_scale: RationalLike = 1,
) -> Optional[int]:
    """Certified sign of lhs_scale*prod(lhs) - rhs_scale*prod(rhs).

    Factors are (sequence, index, exponent) triples with positive exponents;
    scales must be positive rationals.  Exact when every factor has a
    q**(1/d) representation, interval refinement otherwise; None when
    unresolved at the precision cap.
    """
    ln, ld = _scale_parts(lhs_scale)
    rn, rd = _scale_parts(rhs_scale)
    if ln <= 0 or rn <= 0:
        raise ValueError("comparison scales must be positive")
    forms = []
    den = 1
    for seq, n, e in (*lhs, *rhs):
        rep = seq.as_root(n)
        if rep is None:
            break  # no exact form: decide on intervals below
        forms.append((e, rep))
        den = math.lcm(den, rep[1])
    else:
        # raise both sides to the common root degree and cross-multiply:
        # left collects the lhs numerators and the rhs denominators, right
        # the other two, all as integers with no gcd reductions on the way
        left, right = ln ** den * rd ** den, rn ** den * ld ** den
        split = len(lhs)
        for e, (q, d) in forms[:split]:
            k = e * den // d
            left *= q.numerator ** k
            right *= q.denominator ** k
        for e, (q, d) in forms[split:]:
            k = e * den // d
            right *= q.numerator ** k
            left *= q.denominator ** k
        return (left > right) - (left < right)

    def diff(bits: int) -> Interval:
        # every enclosure is strictly positive, so lhs lies in [a/b, c/d]
        # with a, b, c, d the scaled products of the endpoint numerators and
        # denominators, and rhs in [e/f, g/h]; the returned interval holds
        # b d f h (lhs - rhs), which has its sign, with no gcd on the way
        a, b, c, d = _endpoint_products(lhs, ln, ld, bits)
        e, f, g, h = _endpoint_products(rhs, rn, rd, bits)
        return Interval(a * d * f * h - g * b * d * f, c * b * f * h - e * b * d * h)

    return refine_sign(diff, cfg)


def _endpoint_products(
    factors: Sequence[Factor], num: int, den: int, bits: int
) -> Tuple[int, int, int, int]:
    """num/den times the product of the factors' enclosures at ``bits``, as
    the unreduced fractions a/b of its lower and c/d of its upper endpoint.
    A weight's enclosure is strictly positive; any other is refused."""
    a = c = num
    b = d = den
    for seq, n, e in factors:
        enc = seq.enclosure(n, bits)
        lo, hi = enc.lo, enc.hi
        if lo.numerator <= 0:
            raise SequenceError(f"the enclosure of M_{n} of {seq.describe()} is not positive")
        a *= lo.numerator ** e
        b *= lo.denominator ** e
        c *= hi.numerator ** e
        d *= hi.denominator ** e
    return a, b, c, d


def _int_roots(seq: WeightSequence, lo: int, hi: int) -> List[IntRoot]:
    """The integer root forms of M_lo, ..., M_hi that the sequence's batch
    holds, as a new list; the fraction num/den need not be reduced.  It
    stops early at the first index without a form or outside the sequence;
    the caller decides every comparison past it with ``compare_products``,
    which decides or raises there as ``as_root`` does."""
    return seq._int_forms(hi)[lo : hi + 1]


def _three_point_sign(fi: IntRoot, fj: IntRoot, fk: IntRoot, a: int, b: int) -> int:
    """Sign of M_i**a * M_k**b - M_j**(a + b) for a, b >= 1, from the integer
    root forms of M_i, M_j and M_k.

    Equal to ``compare_products([(seq, i, a), (seq, k, b)], [(seq, j, a + b)])``
    on exact forms, without its factor lists.  Both sides are positive, so
    taking their gcd(a, b)-th root, or raising them to a root degree, keeps
    the sign.
    """
    if a == b:
        a = b = 1  # their gcd is a
    else:
        g = math.gcd(a, b)
        if g != 1:
            a //= g
            b //= g
    ni, di, ri = fi
    nj, dj, rj = fj
    nk, dk, rk = fk
    if ri == rj == rk:
        # one root degree: cleared by raising to it; the sign is that of
        # (x/y)**a (z/w)**b - 1, which needs no power when both ratios lie
        # on one side of 1
        x, y, z, w = ni * dj, nj * di, nk * dj, nj * dk
        if x >= y and z >= w:
            return 0 if x == y and z == w else 1
        if x <= y and z <= w:
            return -1
        left, right = x ** a * z ** b, y ** a * w ** b
        return (left > right) - (left < right)
    r = math.lcm(ri, rj, rk)
    a, b, c = a * r // ri, b * r // rk, (a + b) * r // rj
    left = ni ** a * nk ** b * dj ** c
    right = nj ** c * di ** a * dk ** b
    return (left > right) - (left < right)


def _convexity_signs(seq: WeightSequence) -> dict:
    """The batch's signs of M_{j-1} M_{j+1} - M_j**2 by j, which the base
    sweep and the hull both read and fill, so each is decided once."""
    return seq.memo.setdefault(("convex",), {})


# -- module operations ---------------------------------------------------------


def value(seq: WeightSequence, n: int, cfg: ScalarConfig = DEFAULT_CONFIG) -> Scalar:
    """M_n in the requested mode."""
    return make_scalar(cfg, seq.exact(n), lambda bits: seq.enclosure(n, bits))


def derived_value(seq: WeightSequence, n: int, cfg: ScalarConfig = DEFAULT_CONFIG) -> Scalar:
    """M'_n = n! * M_n in the requested mode."""
    f = math.factorial(n)
    q = seq.exact(n)
    exact = f * q if q is not None else None
    return make_scalar(cfg, exact, lambda bits: seq.enclosure(n, bits) * f)


def ratio(seq: WeightSequence, k: int, cfg: ScalarConfig = DEFAULT_CONFIG) -> Scalar:
    """m_k = M'_{k+1} / M'_k = (k+1) * M_{k+1} / M_k."""
    if k < 0:
        raise SequenceError("ratio index must be nonnegative")
    qa, qb = seq.exact(k + 1), seq.exact(k)
    exact = (k + 1) * qa / qb if qa is not None and qb is not None else None
    return make_scalar(
        cfg,
        exact,
        lambda bits: seq.enclosure(k + 1, bits) * (k + 1) / seq.enclosure(k, bits),
    )


def global_family_rule(seq: WeightSequence) -> Optional[str]:
    """The provenance under which M is log-convex with M_1 >= M_0 = 1, and
    so nondecreasing, for every n; None for any other sequence.

    Analytic is constant and Gevrey(s) is a power of the log-convex n!.  For
    an ``IteratedLog`` with ``from_tower`` write f(x) = x log L_k(x), so that
    log M_n = f(s+n) - f(s).  The default shift rests on f being convex on
    [tower, oo); an offset s >= tower uses only its restriction to [s, oo),
    so it needs no new claim (for k = 1, f'' = (log x - 1) / (x log**2 x) is
    nonnegative exactly when x >= e), and L_k(s) >= 1 with L_k increasing
    gives M_1 >= M_0.  A power substitution, nested or not, samples such an
    M along an arithmetic progression, which keeps both properties.  The
    derived sequence n! M_n is then log-convex too, as a product of
    log-convex sequences.
    """
    base, p = flatten_power_sub(seq)
    if isinstance(base, Analytic):
        rule = "constant family"
    elif isinstance(base, Gevrey):
        rule = "powers of the log-convex factorial sequence"
    elif isinstance(base, IteratedLog) and base.from_tower:
        rule = "iterated-log family rule: log-convex from the tower shift, base above 1"
    else:
        return None
    return rule if p == 1 else f"power substitution of a log-convex family ({rule})"


def is_increasing(
    seq: WeightSequence, window: Window = (1, 64), cfg: ScalarConfig = DEFAULT_CONFIG
) -> Verdict:
    """Certified check that M_n <= M_{n+1} across the window."""
    a, b = _check_window(window)
    for n in range(a, b + 1):
        sign = compare_products([(seq, n, 1)], [(seq, n + 1, 1)], cfg)
        if sign is None:
            return Verdict.inconclusive(
                window,
                Trend(note=f"comparison at n={n} unresolved at the precision cap"),
            )
        if sign > 0:
            vals = (
                f"M_{n}={_display(seq, n, cfg)}",
                f"M_{n + 1}={_display(seq, n + 1, cfg)}",
            )
            return Verdict.fails(window, Witness(n, vals))
    rule = global_family_rule(seq)
    return Verdict.holds(window, SCOPE_WINDOW if rule is None else SCOPE_GLOBAL, rule)


def is_log_convex(
    seq: WeightSequence,
    window: Window = (1, 64),
    which: str = "base",
    cfg: ScalarConfig = DEFAULT_CONFIG,
) -> Verdict:
    """Certified check that M_n**2 <= M_{n-1} M_{n+1} (or the same for M')
    across a window starting at n >= 1."""
    if which not in ("base", "derived"):
        raise ValueError("which must be 'base' or 'derived'")
    a, b = _check_window(window, min_start=1)
    base = which == "base"
    # the base sweep decides the points in the sequence's batch on integers,
    # once per sequence (the signs are the hull's too), extending the batch
    # to about twice the index it has reached, so that a sweep that ends
    # early reads few points; compare_products decides the rest, and raises
    # at the bad index
    forms: List[IntRoot] = []
    signs = _convexity_signs(seq) if base else {}
    reach = 0  # the batch has been asked for M_0, ..., M_reach
    for n in range(a, b + 1):
        if base and n + 1 > reach:
            reach = min(b + 1, 2 * n + 8)
            forms = seq._int_forms(reach)
        if n + 1 < len(forms):
            sign = signs.get(n)
            if sign is None:
                sign = signs[n] = _three_point_sign(forms[n - 1], forms[n], forms[n + 1], 1, 1)
            sign = -sign
        else:
            # the derived form n!**2 vs (n-1)! (n+1)! divided by (n-1)! n!
            ls, rs = (1, 1) if base else (n, n + 1)
            sign = compare_products(
                [(seq, n, 2)], [(seq, n - 1, 1), (seq, n + 1, 1)], cfg, ls, rs
            )
        if sign is None:
            return Verdict.inconclusive(
                window,
                Trend(note=f"comparison at n={n} unresolved at the precision cap"),
            )
        if sign > 0:
            vals = tuple(
                f"M_{m}={_display(seq, m, cfg)}" for m in (n - 1, n, n + 1)
            )
            return Verdict.fails(window, Witness(n, vals))
    # the derived sequence n! M_n inherits the rule's scope
    rule = global_family_rule(seq)
    return Verdict.holds(window, SCOPE_WINDOW if rule is None else SCOPE_GLOBAL, rule)


def _display(seq: WeightSequence, n: int, cfg: ScalarConfig) -> str:
    q = seq.exact(n)
    if q is not None:
        return fraction_str(q)
    enc = seq.enclosure(n, cfg.bits)
    return f"~{display_float(enc.midpoint):.9g}"
