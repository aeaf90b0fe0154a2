"""Certified scalar arithmetic.

Three representations cover every real quantity in the toolkit:

* exact rationals (``fractions.Fraction``), used whenever a value is exactly
  representable;
* intervals with exact rational endpoints: ring operations are computed
  exactly on the endpoints, and transcendental functions are enclosed by
  mpmath's directed-rounding interval kernels (``libmp.mpi_*``).  Endpoints
  cross to mpmath as mpf tuples, and a ``Fraction`` is built only where an
  ``Interval`` leaves this module: a dyadic endpoint is read off its bits,
  and an mpf result becomes a ``Fraction`` without a gcd, its mantissa being
  odd.  Enclosures that need a power or a quotient of intervals
  (``outward_pow_product``) are rounded once to dyadics; the result equals
  rounding the exact value, which is formed only when directed bounds cannot
  decide the rounding.  The order invariant lo <= hi is checked where
  endpoints come from callers; ring-op, rounding and mpmath results are
  built ordered by their sign cases or by directed rounding of monotone
  kernels and skip the check;
* adjustable-precision floats (mpmath ``mpf``), for exploratory output only.

Every Holds/Fails verdict in the package is derived from the first two
representations; floats never feed a certified comparison.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Tuple, TypeVar, Union

import mpmath
from mpmath import libmp

RationalLike = Union[int, Fraction]

_GUARD_BITS = 16

# binary exponent range of float-mode values; beyond it RangeError
FLOAT_EXP_CAP = 1 << 20

MODE_EXACT = "exact"
MODE_FLOAT = "float"
MODE_INTERVAL = "interval"
_MODES = (MODE_EXACT, MODE_FLOAT, MODE_INTERVAL)


class RangeError(ArithmeticError):
    """Float-mode result outside the configured exponent range."""


class PrecisionError(ArithmeticError):
    """A certified decision stayed unresolved at the precision cap."""


class ExactUnavailableError(ArithmeticError):
    """Exact-rational mode was requested for a non-rational quantity."""


@lru_cache(maxsize=None)
def _mp_ctx(bits: int) -> "mpmath.ctx_mp.MPContext":
    ctx = mpmath.ctx_mp.MPContext()
    ctx.prec = bits
    return ctx


def _as_fraction(v: RationalLike) -> Fraction:
    # the exact type test skips the ABC machinery behind isinstance(v, Fraction)
    if type(v) is Fraction or isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected an exact rational, got {type(v).__name__}")


_new_object = object.__new__


def _reduced_fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime ints n and d > 0, equal, by ``==``,
    ``hash`` and type, to ``Fraction(n, d)``, built without its gcd and its
    argument dispatch.  Only results in lowest terms by construction come
    through here."""
    q = _new_object(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _int_fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d for ints n and d > 0, equal, by ``==``, ``hash``
    and type, to ``Fraction(n, d)``, reduced by one gcd and built without
    the constructor's argument dispatch."""
    g = math.gcd(n, d)
    return _reduced_fraction(n // g, d // g)


def _fraction_from_mpf_tuple(t) -> Fraction:
    """The value of a normalized mpf tuple, whose mantissa is odd, so that
    man / 2**-exp is in lowest terms."""
    sign, man, exp, _bc = t
    if man == 0:
        if exp == 0:
            return _reduced_fraction(0, 1)
        raise RangeError("non-finite interval endpoint")
    man = -int(man) if sign else int(man)
    if exp >= 0:
        return _reduced_fraction(man << exp, 1)
    return _reduced_fraction(man, 1 << -exp)


def _rounded_tuple(q: Fraction, bits: int, rnd: str):
    """q as an mpf tuple with a ``bits``-bit mantissa, rounded by ``rnd``.

    A q that ``_exact_tuple`` reads off is its own rounding either way;
    every other q is rounded by ``_rounded_ratio``, which gives the same
    tuple on a dyadic."""
    return _exact_tuple(q, bits) or _rounded_ratio(q.numerator, q.denominator, bits, rnd)


def _exact_tuple(q: Fraction, bits: int):
    """A dyadic q whose odd part fits in ``bits`` bits as an mpf tuple, read
    off its bits; None for every other q."""
    p, d = q.numerator, q.denominator
    if p and not d & (d - 1):
        man = -p if p < 0 else p
        if d == 1:
            zeros = (man & -man).bit_length() - 1
            man >>= zeros
            exp = zeros
        else:
            exp = 1 - d.bit_length()  # p is odd: q is in lowest terms
        bc = man.bit_length()
        if bc <= bits:
            return (int(p < 0), libmp.MPZ(man), exp, bc)
    return None


def _rounded_ratio(p: int, d: int, bits: int, rnd: str):
    """p/d (d > 0, not necessarily in lowest terms) as an mpf tuple with a
    ``bits``-bit mantissa, rounded by ``rnd``: floor ('f'), ceiling ('c') or
    to nearest with ties to even ('n').

    Computed in integer arithmetic: each rounding is unique, so the tuple is
    the one mpmath's ``from_rational`` returns, without its byte-by-byte
    trailing-zero scan of the unrounded operands.
    """
    if p == 0:
        return libmp.fzero
    nearest = rnd == "n"
    prec = bits + nearest  # round to nearest keeps one guard bit
    # |q| 2**s lies strictly between 2**(prec-1) and 2**(prec+1)
    s = prec - abs(p).bit_length() + d.bit_length()
    man, rem = divmod(abs(p) << s, d) if s >= 0 else divmod(abs(p), d << -s)
    if man >> prec:
        s -= 1
        rem = rem or man & 1
        man >>= 1
    if nearest:
        # rem is the sticky bit: a tie only when the guard bit is the whole rest
        guard = man & 1
        s -= 1
        man >>= 1
        if guard and (rem or man & 1):
            man += 1
    elif rem and (p < 0) == (rnd == "f"):
        man += 1  # away from zero: floor of a negative, ceiling of a positive
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return (int(p < 0), libmp.MPZ(man), zeros - s, man.bit_length())


def int_nth_root_floor(x: int, n: int) -> int:
    """Floor of the n-th root of a nonnegative integer."""
    if x < 0 or n < 1:
        raise ValueError("int_nth_root_floor requires x >= 0, n >= 1")
    if n == 1 or x in (0, 1):
        return x
    r = 1 << -(-x.bit_length() // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            return r
        r = nr


def exact_nth_root(q: Fraction, n: int) -> Optional[Fraction]:
    """The exact n-th root of a positive rational, or None if irrational."""
    if q <= 0:
        raise ValueError("exact_nth_root requires a positive rational")
    rn = int_nth_root_floor(q.numerator, n)
    rd = int_nth_root_floor(q.denominator, n)
    if rn ** n == q.numerator and rd ** n == q.denominator:
        return Fraction(rn, rd)
    return None


_ZERO = Fraction(0)


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval with exact rational endpoints, lo <= hi.

    The constructor is for endpoints from outside: it coerces them to
    ``Fraction`` and refuses lo > hi.  Ring operations, ``reciprocal``,
    ``pow_int``, ``widen`` and ``outward`` build their results through the
    module-private ``_iv``, which skips both steps: each sign case of those
    operations yields Fraction endpoints already in order.  The sign of an
    endpoint is read from its numerator, denominators being positive.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if type(lo) is not Fraction:
            lo = _as_fraction(lo)
            object.__setattr__(self, "lo", lo)
        if type(hi) is not Fraction:
            hi = _as_fraction(hi)
            object.__setattr__(self, "hi", hi)
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")

    @classmethod
    def point(cls, v: RationalLike) -> "Interval":
        q = _as_fraction(v)
        return _iv(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, v: RationalLike) -> bool:
        q = _as_fraction(v)
        return self.lo <= q <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def strictly_positive(self) -> bool:
        return self.lo.numerator > 0

    def __neg__(self) -> "Interval":
        return _iv(-self.hi, -self.lo)

    def __abs__(self) -> "Interval":
        lo, hi = self.lo, self.hi
        if lo.numerator >= 0:
            return self
        if hi.numerator <= 0:
            return -self
        return _iv(_ZERO, max(-lo, hi))

    def _coerce(self, other) -> "Interval":
        if isinstance(other, Interval):
            return other
        return Interval.point(other)

    def __add__(self, other) -> "Interval":
        o = self._coerce(other)
        return _iv(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Interval":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Interval":
        o = self._coerce(other)
        a, b, c, d = self.lo, self.hi, o.lo, o.hi
        # sign-split cases avoid min/max comparisons on large operands
        if a.numerator >= 0:
            if c.numerator >= 0:
                return _iv(a * c, b * d)
            if d.numerator <= 0:
                return _iv(b * c, a * d)
            return _iv(b * c, b * d)
        if b.numerator <= 0:
            if c.numerator >= 0:
                return _iv(a * d, b * c)
            if d.numerator <= 0:
                return _iv(b * d, a * c)
            return _iv(a * d, a * c)
        if c.numerator >= 0:
            return _iv(a * d, b * d)
        if d.numerator <= 0:
            return _iv(b * c, a * c)
        return _iv(min(a * d, b * c), max(a * c, b * d))

    __rmul__ = __mul__

    def reciprocal(self) -> "Interval":
        lo, hi = self.lo, self.hi
        if lo.numerator <= 0 <= hi.numerator:
            raise ZeroDivisionError("reciprocal of an interval containing zero")
        return _iv(1 / hi, 1 / lo)

    def __truediv__(self, other) -> "Interval":
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other) -> "Interval":
        return self._coerce(other) * self.reciprocal()

    def pow_int(self, e: int) -> "Interval":
        e = operator.index(e)  # a float exponent would give float endpoints
        if e == 0:
            return Interval.point(1)
        if e < 0:
            return self.reciprocal().pow_int(-e)
        lo, hi = self.lo, self.hi
        if lo.numerator >= 0:
            return _iv(lo ** e, hi ** e)
        if hi.numerator <= 0:
            if e % 2 == 0:
                return _iv(hi ** e, lo ** e)
            return _iv(lo ** e, hi ** e)
        if e % 2 == 0:
            return _iv(_ZERO, max(lo ** e, hi ** e))
        return _iv(lo ** e, hi ** e)

    def widen(self, margin: RationalLike) -> "Interval":
        m = _as_fraction(margin)
        if m < 0:
            raise ValueError("widening margin must be nonnegative")
        return _iv(self.lo - m, self.hi + m)

    def outward(self, bits: int) -> "Interval":
        """Endpoints outward-rounded to dyadics with the given mantissa size."""
        lo = _fraction_from_mpf_tuple(_rounded_tuple(self.lo, bits, "f"))
        hi = _fraction_from_mpf_tuple(_rounded_tuple(self.hi, bits, "c"))
        return _iv(lo, hi)

    def __repr__(self) -> str:
        if self.is_point():
            return f"[{self.lo}]"
        lo, hi = (mpmath.nstr(mpmath.mpf(display_float(v)), 12) for v in (self.lo, self.hi))
        return f"[{lo}, {hi}]"


_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__


def _iv(lo: Fraction, hi: Fraction) -> Interval:
    """An Interval from two Fractions with lo <= hi, unchecked and uncoerced.

    Only results whose order and endpoint type hold by construction come
    through here; everything else goes through the checking constructor.
    """
    iv = _new_object(Interval)
    _set_lo(iv, lo)
    _set_hi(iv, hi)
    return iv


# bits kept beyond the target by the directed bounds of outward_pow_product,
# on top of one bit per bit of each exponent: rounding an input at wp bits
# moves its e-th power by a relative |e| 2**-wp, and mpf_pow_int works at
# wp + 4 log2|e| internally, so the bounds stay about 2**-(bits + 32) apart,
# relatively, and straddle a bits-bit dyadic only rarely
_ROUND_ONCE_GUARD = 32


_OTHER_WAY = {"f": "c", "c": "f"}


def _directed_term(v: Fraction, e: int, wp: int, rnd: str, tv=None):
    """The factor v**e of a product bounded below ('f') or above ('c'), as
    an mpf tuple at ``wp`` bits; v is a positive rational.  That is v**e
    rounded by ``rnd`` when e > 0, and the divisor v**-e rounded the other
    way when e < 0; None when e == 0.  ``tv`` is v's ``_exact_tuple`` at
    ``wp`` bits when the caller has it, which serves both directions."""
    if e == 0:
        return None
    if e < 0:
        e, rnd = -e, _OTHER_WAY[rnd]
    return libmp.mpf_pow_int(tv or _rounded_tuple(v, wp, rnd), e, wp, rnd)


def _directed_product(ta, p: int, tb, q: int, wp: int, rnd: str):
    """A lower ('f') or upper ('c') bound, as an mpf tuple at ``wp`` bits, of
    a**p * b**q, where ``ta`` and ``tb`` are the directed terms of a**p and
    b**q for that bound.  Terms with a negative exponent go to one
    denominator; a lone term with a positive exponent is the bound itself."""
    inv = _OTHER_WAY[rnd]
    num = den = None
    for t, e in ((ta, p), (tb, q)):
        if e > 0:
            num = t if num is None else libmp.mpf_mul(num, t, wp, rnd)
        elif e < 0:
            den = t if den is None else libmp.mpf_mul(den, t, wp, inv)
    if den is None:
        return libmp.fone if num is None else num
    return libmp.mpf_div(libmp.fone if num is None else num, den, wp, rnd)


def _round_once(
    a: Fraction, p: int, b: Fraction, q: int, b_terms, bits: int, wp: int, rnd: str
) -> Fraction:
    """a**p * b**q rounded by ``rnd`` to a ``bits``-bit dyadic; ``b_terms``
    are the directed terms of b**q for its lower and its upper bound.

    Both directed bounds are rounded to ``bits``; when they agree, the exact
    value, which lies between them, rounds to the same dyadic (Ziv's test).
    Otherwise the exact value is rounded.  An a that fits in ``wp`` bits,
    as every ``iv_log_chain`` result does, is read off once for both.
    """
    tv = _exact_tuple(a, wp)
    ta_lo, ta_hi = (_directed_term(a, p, wp, r, tv) for r in "fc")
    lower = libmp.mpf_pos(_directed_product(ta_lo, p, b_terms[0], q, wp, "f"), bits, rnd)
    upper = libmp.mpf_pos(_directed_product(ta_hi, p, b_terms[1], q, wp, "c"), bits, rnd)
    if lower == upper:
        return _fraction_from_mpf_tuple(lower)
    return _round_exact(((a, p), (b, q)), bits, rnd)


def _round_exact(factors, bits: int, rnd: str) -> Fraction:
    """prod v**e rounded by ``rnd``, from its unreduced integer quotient."""
    num = den = 1
    for v, e in factors:
        if e >= 0:
            num *= v.numerator ** e
            den *= v.denominator ** e
        else:
            num *= v.denominator ** -e
            den *= v.numerator ** -e
    return _fraction_from_mpf_tuple(_rounded_ratio(num, den, bits, rnd))


def outward_pow_product(
    a: Interval, p: int, b: Interval, q: int, bits: int, b_memo: Optional[dict] = None
) -> Interval:
    """``(a.pow_int(p) * b.pow_int(q)).outward(bits)``, equal by value, for
    any signs of ``p`` and ``q``.

    When both intervals are strictly positive, each endpoint is a product of
    endpoint powers, rounded once from directed bounds at bits plus a guard;
    the exact power, with endpoints of ``p`` times the input size, is formed
    only when those bounds straddle a ``bits``-bit dyadic.  Every other input
    evaluates the exact expression.  ``b_memo``, a dict a caller keeps for
    one ``b`` and ``q``, holds the directed powers of ``b`` by working
    precision, so that they are computed once for every ``a``.
    """
    if a.lo.numerator > 0 and b.lo.numerator > 0:
        wp = bits + _ROUND_ONCE_GUARD + abs(p).bit_length() + abs(q).bit_length()
        # x**e grows with x for e > 0 and shrinks for e < 0
        a_lo, a_hi = (a.lo, a.hi) if p >= 0 else (a.hi, a.lo)
        b_lo, b_hi = (b.lo, b.hi) if q >= 0 else (b.hi, b.lo)
        b_terms = None if b_memo is None else b_memo.get(wp)
        if b_terms is None:
            b_terms = tuple(_directed_term(v, q, wp, r) for v in (b_lo, b_hi) for r in "fc")
            if b_memo is not None:
                b_memo[wp] = b_terms
        # the floor of the smaller exact product is at most the ceiling of
        # the larger one
        lo = _round_once(a_lo, p, b_lo, q, b_terms[:2], bits, wp, "f")
        hi = _round_once(a_hi, p, b_hi, q, b_terms[2:], bits, wp, "c")
        return _iv(lo, hi)
    return (a.pow_int(p) * b.pow_int(q)).outward(bits)


def _to_mpi(x: Interval, wp: int):
    """x outward-rounded to a pair of mpf tuples at ``wp`` bits."""
    return _rounded_tuple(x.lo, wp, "f"), _rounded_tuple(x.hi, wp, "c")


def _from_mpi(t) -> Interval:
    """The Interval of an mpf tuple pair from a directed-rounding kernel,
    ordered by construction."""
    return _iv(_fraction_from_mpf_tuple(t[0]), _fraction_from_mpf_tuple(t[1]))


def _unary(fn_name: str, mpi_fn):
    def op(x: Union[Interval, RationalLike], bits: int) -> Interval:
        iv = x if isinstance(x, Interval) else Interval.point(x)
        wp = bits + _GUARD_BITS
        try:
            return _from_mpi(mpi_fn(_to_mpi(iv, wp), wp))
        except (libmp.ComplexResult, RangeError) as exc:
            raise ValueError(f"{fn_name} outside the real domain: {iv}") from exc

    return op


iv_exp = _unary("exp", libmp.mpi_exp)
iv_log = _unary("log", libmp.mpi_log)
iv_cos = _unary("cos", libmp.mpi_cos)
iv_sin = _unary("sin", libmp.mpi_sin)
iv_sqrt = _unary("sqrt", libmp.mpi_sqrt)


def iv_log_chain(x: Union[Interval, RationalLike], k: int, bits: int) -> Interval:
    """``iv_log`` applied k >= 1 times at ``bits``, equal by value.

    Each step's endpoints have at most bits + _GUARD_BITS bits, the
    precision the next step rounds to, so they stay mpf tuples in between
    and only the last step's become Fractions."""
    iv = x if isinstance(x, Interval) else Interval.point(x)
    wp = bits + _GUARD_BITS
    t = _to_mpi(iv, wp)
    for step in range(k):
        try:
            out = libmp.mpi_log(t, wp)
            # log 0 is -inf; a negative endpoint raised already
            if out[0][1] == 0 and out[0][2]:
                raise RangeError("non-finite interval endpoint")
        except (libmp.ComplexResult, RangeError) as exc:
            arg = iv if step == 0 else _from_mpi(t)
            raise ValueError(f"log outside the real domain: {arg}") from exc
        t = out
    return _from_mpi(t)


def iv_cos_sin(x: Union[Interval, RationalLike], bits: int) -> Tuple[Interval, Interval]:
    """``(iv_cos(x, bits), iv_sin(x, bits))`` from one argument reduction:
    mpmath computes both parts of each in one ``mpi_cos_sin`` call."""
    iv = x if isinstance(x, Interval) else Interval.point(x)
    wp = bits + _GUARD_BITS
    c, s = libmp.mpi_cos_sin(_to_mpi(iv, wp), wp)
    return _from_mpi(c), _from_mpi(s)


def _constant(mpf_fn, bits: int) -> Interval:
    wp = bits + _GUARD_BITS
    return _from_mpi((mpf_fn(wp, "f"), mpf_fn(wp, "c")))


def iv_e(bits: int) -> Interval:
    return _constant(libmp.mpf_e, bits)


def iv_pi(bits: int) -> Interval:
    return _constant(libmp.mpf_pi, bits)


def iv_pow(x: Union[Interval, RationalLike], exponent: RationalLike, bits: int) -> Interval:
    """Enclosure of x**exponent; rational exponents require x > 0."""
    iv = x if isinstance(x, Interval) else Interval.point(x)
    q = _as_fraction(exponent)
    if q.denominator == 1:
        return iv.pow_int(q.numerator)
    if iv.lo.numerator <= 0:
        raise ValueError("rational powers need a strictly positive base interval")
    return iv_exp(iv_log(iv, bits) * q, bits)


def iv_root_of_product(a: Interval, p: int, b: Interval, q: int, r: int, bits: int) -> Interval:
    """Enclosure of (a**p * b**q)**(1/r) for r >= 1: ``iv_pow`` of the
    ``outward_pow_product``, which rounds the product once where the log
    of ``iv_pow`` would round it, at bits + ``_GUARD_BITS``."""
    return iv_pow(outward_pow_product(a, p, b, q, bits + _GUARD_BITS), Fraction(1, r), bits)


@dataclass(frozen=True)
class ScalarConfig:
    """Requested representation and working precision for an operation."""

    mode: str = MODE_INTERVAL
    bits: int = 256
    max_doublings: int = 6

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown scalar mode {self.mode!r}")
        if self.bits < 8:
            raise ValueError("mantissa size must be at least 8 bits")
        if self.max_doublings < 0:
            raise ValueError("max_doublings must be nonnegative")


DEFAULT_CONFIG = ScalarConfig()


@dataclass(frozen=True)
class Scalar:
    """A number in one of the three representations.

    Exactly one payload is populated: ``exact`` for exact-rational mode,
    ``approx`` for float mode, or the ``lo``/``hi`` pair for interval mode.
    """

    mode: str
    exact: Optional[Fraction] = None
    approx: object = None
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown scalar mode {self.mode!r}")
        if self.mode == MODE_INTERVAL and self.lo > self.hi:
            raise ValueError("interval scalar endpoints out of order")

    @classmethod
    def from_fraction(cls, q: RationalLike) -> "Scalar":
        return cls(MODE_EXACT, exact=_as_fraction(q))

    @classmethod
    def from_interval(cls, iv: Interval) -> "Scalar":
        return cls(MODE_INTERVAL, lo=iv.lo, hi=iv.hi)

    @classmethod
    def from_float(cls, v) -> "Scalar":
        return cls(MODE_FLOAT, approx=v)

    def interval(self) -> Interval:
        if self.mode == MODE_EXACT:
            return Interval.point(self.exact)
        if self.mode == MODE_INTERVAL:
            return Interval(self.lo, self.hi)
        raise ExactUnavailableError("a float scalar carries no certified enclosure")

    def fraction(self) -> Fraction:
        if self.mode == MODE_EXACT:
            return self.exact
        raise ExactUnavailableError(f"scalar in {self.mode} mode has no exact value")

    def __float__(self) -> float:
        if self.mode == MODE_EXACT:
            return float(self.exact)
        if self.mode == MODE_FLOAT:
            return float(self.approx)
        return float((self.lo + self.hi) / 2)

    def __repr__(self) -> str:
        if self.mode == MODE_EXACT:
            return f"Scalar({self.exact})"
        if self.mode == MODE_FLOAT:
            return f"Scalar(~{self.approx})"
        return f"Scalar[{display_float(self.lo):.12g}, {display_float(self.hi):.12g}]"


_RANGE_MESSAGE = (
    "value exceeds the float-mode exponent range; "
    "use interval or exact mode (log-domain) instead"
)


def _float_from_fraction(q: Fraction, cfg: ScalarConfig):
    if q:
        # the rounded value's exponent exp + bc lies in [e, e + 2]
        e = abs(q.numerator).bit_length() - q.denominator.bit_length()
        if e > FLOAT_EXP_CAP or e + 2 < -FLOAT_EXP_CAP:
            raise RangeError(_RANGE_MESSAGE)
    t = _rounded_tuple(q, cfg.bits, "n")
    _sign, man, exp, bc = t
    if man != 0 and abs(exp + bc) > FLOAT_EXP_CAP:
        raise RangeError(_RANGE_MESSAGE)
    return _mp_ctx(cfg.bits).make_mpf(t)


def make_scalar(
    cfg: ScalarConfig,
    exact: Optional[Fraction],
    enclosure: Optional[Callable[[int], Interval]] = None,
) -> Scalar:
    """Package a value in the requested mode.

    ``exact`` is the exact rational value when one exists; ``enclosure`` maps
    a bit count to a certified enclosure and is required when ``exact`` is
    None.
    """
    if cfg.mode == MODE_EXACT:
        if exact is None:
            raise ExactUnavailableError(
                "value is not exactly rational; request interval or float mode"
            )
        return Scalar.from_fraction(exact)
    if cfg.mode == MODE_INTERVAL:
        iv = Interval.point(exact) if exact is not None else enclosure(cfg.bits)
        return Scalar.from_interval(iv.outward(cfg.bits))
    if exact is not None:
        return Scalar.from_float(_float_from_fraction(exact, cfg))
    iv = enclosure(cfg.bits + _GUARD_BITS)
    return Scalar.from_float(_float_from_fraction(iv.midpoint, cfg))


EnclosureFn = Callable[[int], Interval]

T = TypeVar("T")


def refine(decide: Callable[[int], Optional[T]], cfg: ScalarConfig) -> Optional[T]:
    """The precision-refinement ladder behind every certified decision.

    Calls ``decide(bits)`` at bits = cfg.bits, 2 cfg.bits, 4 cfg.bits, ...,
    doubling at most ``max_doublings`` times, and returns the first result
    that is not None; None when every attempt stayed undecided.
    """
    bits = cfg.bits
    for _ in range(cfg.max_doublings + 1):
        result = decide(bits)
        if result is not None:
            return result
        bits *= 2
    return None


def refine_sign(diff: EnclosureFn, cfg: ScalarConfig) -> Optional[int]:
    """Certified sign of a quantity given by enclosures, refining precision.

    Returns -1, 0 (only for an exact zero-width enclosure) or +1; None when
    the sign stays unresolved after ``max_doublings`` refinements.
    """

    def decide(bits: int) -> Optional[int]:
        d = diff(bits)
        if d.hi < 0:
            return -1
        if d.lo > 0:
            return 1
        if d.lo == d.hi == 0:
            return 0
        return None

    return refine(decide, cfg)


def refine_le(lhs: EnclosureFn, rhs: EnclosureFn, cfg: ScalarConfig) -> Optional[bool]:
    """Certified lhs <= rhs for quantities given by enclosures, refining
    precision: True once lhs(bits).hi <= rhs(bits).lo, False once
    lhs(bits).lo > rhs(bits).hi, None when still unresolved at the cap."""

    def decide(bits: int) -> Optional[bool]:
        a, b = lhs(bits), rhs(bits)
        if a.hi <= b.lo:
            return True
        if a.lo > b.hi:
            return False
        return None

    return refine(decide, cfg)


def decimal_str(q: Fraction, digits: int, direction: str) -> str:
    """Decimal rendering with directed rounding ('down' or 'up'), exact in
    integer arithmetic so emitted reports are deterministic."""
    if direction not in ("down", "up"):
        raise ValueError("direction must be 'down' or 'up'")
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    scale = 10 ** digits
    scaled = q * scale
    n, d = scaled.numerator, scaled.denominator
    if direction == "down":
        units = n // d
    else:
        units = -((-n) // d)
    sign = "-" if units < 0 else ""
    units = abs(units)
    whole, frac = divmod(units, scale)
    if digits == 0:
        return f"{sign}{_int_str(whole)}"
    return f"{sign}{_int_str(whole)}.{_int_str(frac).zfill(digits)}"


# str() refuses an int with more digits than the interpreter's limit, which
# is at least 640 (4 300 by default); an int below 3 * 640 bits has fewer
# than 640 digits
_INT_STR_BITS = 3 * 640


def _int_str(n: int) -> str:
    """str(n) for an int of any size: past the digit limit of str(), the
    digits of the two halves n // 10**k and n % 10**k are joined."""
    if n < 0:
        return "-" + _int_str(-n)
    bits = n.bit_length()
    if bits < _INT_STR_BITS:
        return str(n)
    k = bits * 3 // 20  # about half the digits
    hi, lo = divmod(n, 10 ** k)
    return _int_str(hi) + _int_str(lo).zfill(k)


def fraction_str(q: Fraction) -> str:
    """str(q) for a Fraction of any size."""
    if q.denominator == 1:
        return _int_str(q.numerator)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


# 53-bit arithmetic for diagnostic values, without the float's exponent limits
_DISPLAY_CTX = _mp_ctx(53)


class DisplayFloat(_DISPLAY_CTX.mpf):
    """A 53-bit binary float with an unbounded exponent, for diagnostic
    text.  Its arithmetic rounds as a float's does inside the float range,
    and ``format(v, ".6g")`` prints six digits and the true exponent where
    a float would read inf or 0."""

    def __format__(self, spec: str) -> str:
        # a ".Ng" spec as a float reads it: N significant digits, trailing
        # zeros dropped; past the float range mpmath writes an exponent
        digits = int(spec[1:-1]) if spec[:1] == "." and spec[-1:] == "g" else 17
        mantissa, e, exponent = libmp.to_str(self._mpf_, digits).partition("e")
        if e and "." in mantissa:
            mantissa = mantissa.rstrip("0").rstrip(".")
        return mantissa + e + exponent


def display_float(x) -> Union[float, DisplayFloat]:
    """``x``, a rational, an mpf or a Scalar, rounded to 53 bits for
    diagnostic text: ``float(x)`` where x is 0 or its float is normal, else
    a DisplayFloat of x.  No value then reads inf or 0 that is neither, and
    none raises OverflowError."""
    if isinstance(x, Scalar):
        if x.mode == MODE_INTERVAL:
            x = (x.lo + x.hi) / 2
        else:
            x = x.exact if x.mode == MODE_EXACT else x.approx
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if not x or sys.float_info.min <= abs(f) < math.inf:
        return f
    return DisplayFloat(_rounded_tuple(x, 53, "n") if isinstance(x, Fraction) else x)
