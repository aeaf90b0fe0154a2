"""Sequence-to-sequence transforms: derived power substitution and the
greatest log-convex minorant.

Power substitution sends M to n |-> M_{p n} (``seqcore.PowerSub``); its
derived form, here, divides M'_{p n} by n**((p-1) n).  Regularization
returns, window-relative, the largest log-convex sequence below the input:
exponentials of the lower convex hull of the points (n, log M_n).  Hull turn
tests never touch logs directly; the sign of a log-linear combination is
decided by comparing rational powers, exactly whenever every operand has a
q**(1/d) form and by interval refinement otherwise.  Collinear points are
kept as vertices, so a log-convex input is reproduced verbatim.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import List, Optional, Tuple

from .scalar import (
    DEFAULT_CONFIG,
    Interval,
    PrecisionError,
    Scalar,
    ScalarConfig,
    iv_root_of_product,
    make_scalar,
)
from .seqcore import (
    IntRoot,
    RootRep,
    SequenceError,
    WeightSequence,
    Window,
    _convexity_signs,
    _int_roots,
    _three_point_sign,
    compare_products,
)


def derived_power_substitution(
    seq: WeightSequence, p: int, n: int, cfg: ScalarConfig = DEFAULT_CONFIG
) -> Scalar:
    """M'_{p n} / n**((p-1) n), with the n = 0 value fixed to 1."""
    if not isinstance(p, int) or p < 1:
        raise SequenceError("power-substitution exponent p must be a positive integer")
    if n < 0:
        raise SequenceError("index must be nonnegative")
    if n == 0:
        return make_scalar(cfg, Fraction(1))
    scale = Fraction(math.factorial(p * n), n ** ((p - 1) * n))
    q = seq.exact(p * n)
    exact = scale * q if q is not None else None
    return make_scalar(cfg, exact, lambda bits: seq.enclosure(p * n, bits) * scale)


def _turn_sign(
    seq: WeightSequence, i: int, j: int, k: int, cfg: ScalarConfig, forms: List[IntRoot],
    signs: dict,
) -> int:
    """Certified orientation of (i, log M_i), (j, log M_j), (k, log M_k).

    Positive when the middle point lies strictly below the chord (a convex
    corner of the lower hull), zero when collinear.  ``forms`` holds the
    integer root forms of the sequence's batch, by index, and ``signs`` the
    sequence's convexity signs, which decide a turn of consecutive points.
    """
    if k < len(forms):
        if i + 2 == k:
            sign = signs.get(j)
            if sign is None:
                sign = signs[j] = _three_point_sign(forms[i], forms[j], forms[k], 1, 1)
            return sign
        return _three_point_sign(forms[i], forms[j], forms[k], k - j, j - i)
    sign = compare_products(
        [(seq, i, k - j), (seq, k, j - i)],
        [(seq, j, k - i)],
        cfg,
    )
    if sign is None:
        raise PrecisionError(
            f"hull orientation of points {i}, {j}, {k} unresolved at the precision cap"
        )
    return sign


def _lower_log_hull(seq: WeightSequence, n_max: int, cfg: ScalarConfig) -> Tuple[int, ...]:
    """Monotone-chain lower hull vertex indices on [0, n_max >= 2], keeping
    collinear points."""
    forms, signs = _int_roots(seq, 0, n_max), _convexity_signs(seq)
    stack = [0, 1]
    for k in range(2, n_max + 1):
        while len(stack) >= 2 and _turn_sign(seq, stack[-2], stack[-1], k, cfg, forms, signs) < 0:
            stack.pop()
        stack.append(k)
    return tuple(stack)


class Regularized(WeightSequence):
    """Greatest log-convex minorant of ``base`` on [0, n_max].

    Values at hull vertices equal the base values; between consecutive
    vertices a < b the value is the geometric interpolation
    (M_a**(b-n) * M_b**(n-a)) ** (1/(b-a)).  The transform is window-relative
    and refuses indices beyond n_max (the true minorant depends on the
    uncomputable tail).
    """

    def __init__(self, base: WeightSequence, n_max: int, vertices: Tuple[int, ...]):
        super().__init__()
        vertices = tuple(vertices)
        if vertices[:1] != (0,) or vertices[-1] != n_max or any(
            a >= b for a, b in zip(vertices, vertices[1:])
        ):
            raise SequenceError(f"hull vertices must increase from 0 to {n_max}, got {vertices}")
        self.base = base
        self.n_max = n_max
        self.vertices = vertices
        self._vertex_set = frozenset(vertices)

    def _validate_index(self, n: int):
        super()._validate_index(n)
        if n > self.n_max:
            raise SequenceError(
                f"regularization is window-relative: index {n} beyond [0, {self.n_max}]"
            )

    def _bracket(self, n: int) -> Tuple[int, int]:
        """The nearest vertices a <= n <= b; a == b == n at a vertex."""
        vs = self.vertices
        i = bisect_right(vs, n)
        a = vs[i - 1]
        return (a, a) if a == n else (a, vs[i])

    def _root(self, n: int) -> Optional[RootRep]:
        """A vertex's form is the base's, and any other point's is read off
        the batch.  A point past the batch lies in a segment with a vertex
        that has no form, or whose base raises, and is given no form; its
        two vertices are read through the base only so that it raises where
        the base raises."""
        if n in self._vertex_set:
            return self.base.as_root(n)
        forms = self._int_forms(n)
        if n < len(forms):
            num, den, d = forms[n]
            return (Fraction(num, den), d)
        a, b = self._bracket(n)
        self.base.as_root(a)
        self.base.as_root(b)
        return None

    def _int_forms(self, hi: int) -> List[IntRoot]:
        """The forms of the points from 0 to the end of the last segment
        before the first vertex without a form.  A vertex's form comes from
        the base's batch when the batch holds it, else, past the index where
        the batch stops, from ``base.as_root``; a None or any error there
        ends the list, which never raises.  Inside a segment [a, b] the form
        at n is (M_a**(b-n) * M_b**(n-a)) ** (1/(b-a)) with the powers
        carried from point to point; no fraction is reduced.  The list is
        built once, for the whole window."""
        if not self._forms_open:
            return self._forms
        base = _int_roots(self.base, 0, self.n_max)
        vs = self.vertices

        def vertex_form(v: int) -> Optional[IntRoot]:
            # the base's batch stops just before an index without a form
            if v <= len(base):
                return base[v] if v < len(base) else None
            try:
                rep = self.base.as_root(v)
            except Exception:  # a user rule can raise anything; as_root re-raises it
                return None
            return None if rep is None else (rep[0].numerator, rep[0].denominator, rep[1])

        if len(vs) == len(base) == self.n_max + 1:
            forms = base  # every point is a vertex
        else:
            forms = base[:1]
            for a, b in zip(vs, vs[1:]):
                fb = vertex_form(b) if forms else None  # forms is [] when M_0 has none
                if fb is None:
                    break
                (na, da, ra), (nb, db, rb) = forms[a], fb
                lcm = ra * rb // math.gcd(ra, rb)
                sa, sb, d = lcm // ra, lcm // rb, lcm * (b - a)
                # (num, den) of M_a**(j sa) and of M_b**(j sb), j < b - a
                pa, pb = [(1, 1)], [(1, 1)]
                sna, sda, snb, sdb = na ** sa, da ** sa, nb ** sb, db ** sb
                for _ in range(b - a - 1):
                    pa.append((pa[-1][0] * sna, pa[-1][1] * sda))
                    pb.append((pb[-1][0] * snb, pb[-1][1] * sdb))
                for j in range(1, b - a):
                    (xa, ya), (xb, yb) = pa[b - a - j], pb[j]
                    forms.append((xa * xb, ya * yb, d))
                forms.append(fb)
        self._forms, self._forms_open = forms, False
        return forms

    def _enclosure(self, n: int, bits: int) -> Interval:
        if n in self._vertex_set:
            return self.base.enclosure(n, bits)
        if self.as_root(n) is not None:
            return super()._enclosure(n, bits)
        a, b = self._bracket(n)
        # a < n < b: M_n = (M_a**(b-n) M_b**(n-a))**(1/(b-a)) on the chord
        return iv_root_of_product(
            self.base.enclosure(a, bits), b - n, self.base.enclosure(b, bits), n - a, b - a, bits
        )

    def describe(self) -> str:
        return f"regularized({self.base.describe()}, [0, {self.n_max}])"


def log_convex_regularization(
    seq: WeightSequence, window: Window, cfg: ScalarConfig = DEFAULT_CONFIG
) -> Regularized:
    """Greatest log-convex minorant of ``seq`` on window = (0, N), N >= 2.

    Raises PrecisionError when hull vertex membership cannot be resolved at
    the configured precision (possible only for non-rational sequences).
    """
    lo, hi = window
    if lo != 0:
        raise SequenceError("regularization window must start at 0")
    if hi < 2:
        raise SequenceError("regularization window must reach N >= 2")
    vertices = _lower_log_hull(seq, hi, cfg)
    return Regularized(seq, hi, vertices)
