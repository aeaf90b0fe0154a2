"""Independent reference values for the correctness gate.

Everything here is plain mpmath or exact Fraction arithmetic written for the
benchmark; none of it calls the carleman package.  Series are summed until
their terms are negligible at the reference precision, which the gate sets
to at least four times the working precision of the operation it checks.

Sequences are described by small tuples, which the workloads also render
into the CLI's sequence expressions:

    ("analytic",)  ("gevrey", s)  ("iterlog", k, offset or None)
    ("powersub", inner, p)
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpf

# -- sequence expressions ---------------------------------------------------------


def spec_text(spec) -> str:
    kind = spec[0]
    if kind == "analytic":
        return "analytic"
    if kind == "gevrey":
        return f"gevrey({spec[1]})"
    if kind == "iterlog":
        return f"iterlog({spec[1]})" if spec[2] is None else f"iterlog({spec[1]},{spec[2]})"
    if kind == "powersub":
        return f"powersub({spec_text(spec[1])},{spec[2]})"
    raise ValueError(kind)


def flatten(spec):
    """(base spec, total power-substitution factor)."""
    p = 1
    while spec[0] == "powersub":
        p *= spec[2]
        spec = spec[1]
    return spec, p


_TOWER_SHIFT = {}


def tower_shift(k: int) -> int:
    """Smallest integer above exp applied k-1 times to e."""
    if k not in _TOWER_SHIFT:
        with mp.workprec(128):
            x = mp.e
            for _ in range(k - 1):
                x = mp.exp(x)
            _TOWER_SHIFT[k] = int(mp.floor(x)) + 1
    return _TOWER_SHIFT[k]


def iterlog_shift(spec) -> int:
    return tower_shift(spec[1]) if spec[2] is None else spec[2]


def _klog(x, k):
    for _ in range(k):
        x = mp.log(x)
    return x


class RefSeq:
    """Values M_n of a sequence spec at the current mpmath precision."""

    def __init__(self, spec):
        self.base, self.p = flatten(spec)
        self._cache = {}
        self._den = None

    def M(self, n: int):
        key = (n, mp.prec)
        if key not in self._cache:
            self._cache[key] = self._base_value(self.p * n)
        return self._cache[key]

    def Mprime(self, n: int):
        return mp.factorial(n) * self.M(n)

    def _base_value(self, n: int):
        kind = self.base[0]
        if kind == "analytic":
            return mpf(1)
        if kind == "gevrey":
            s = self.base[1]
            return mpf(math.factorial(n)) ** (mpf(s.numerator) / s.denominator)
        k = self.base[1]
        s = iterlog_shift(self.base)
        if n == 0:
            return mpf(1)
        if self._den is None or self._den[0] < mp.prec:
            self._den = (mp.prec, _klog(mpf(s), k) ** s)
        return _klog(mpf(s + n), k) ** (s + n) / self._den[1]


def iterlog_offset_valid(k: int, offset: int) -> bool:
    """The k-fold log of the offset is defined and positive."""
    with mp.workprec(128):
        x = mpf(offset)
        for _ in range(k):
            if x <= 0:
                return False
            x = mp.log(x)
        return x > 0


# -- certified-predicate truths ---------------------------------------------------


def _sign(a, b):
    """Sign of a - b; 0 when they agree to the reference precision."""
    tol = (abs(a) + abs(b)) * mpf(2) ** (-(mp.prec - 24))
    d = a - b
    if d > tol:
        return 1
    if d < -tol:
        return -1
    return 0


def increasing_holds(seq: RefSeq, a: int, b: int) -> bool:
    return all(_sign(seq.M(n), seq.M(n + 1)) <= 0 for n in range(a, b + 1))


def log_convex_holds(seq: RefSeq, a: int, b: int, derived: bool) -> bool:
    val = seq.Mprime if derived else seq.M
    return all(
        _sign(val(n) ** 2, val(n - 1) * val(n + 1)) <= 0 for n in range(max(1, a), b + 1)
    )


def ratios_nondecreasing(seq: RefSeq, K: int) -> bool:
    """m_k <= m_{k+1} for 0 <= k < K, the extremal-series construction gate."""
    return all(
        _sign((k + 1) * seq.M(k + 1) ** 2, (k + 2) * seq.M(k) * seq.M(k + 2)) <= 0
        for k in range(K)
    )


def quasianalytic_outcome(spec) -> str:
    """The family-oracle verdict on the Carleman sum."""
    base, p = flatten(spec)
    if base[0] == "analytic" or (base[0] == "gevrey" and base[1] == 0):
        return "holds"
    if base[0] == "gevrey":
        return "fails"
    if p == 1 or base[1] > 1:
        return "holds"
    return "fails"


def increasing_oracle(spec) -> bool:
    base, _ = flatten(spec)
    if base[0] in ("analytic", "gevrey"):
        return True
    return base[2] is None or base[2] >= tower_shift(base[1])


def inclusion_outcome(M, N) -> str:
    if M[0] == "analytic" and increasing_oracle(N):
        return "holds"
    if M[0] == "gevrey" and N[0] == "gevrey" and M[1] <= N[1]:
        return "holds"
    return "inconclusive"


def _mp(q: Fraction):
    return mpf(q.numerator) / q.denominator


# -- reference quantities -----------------------------------------------------------


def dc_partial_sum(seq: RefSeq, N: int):
    return mp.fsum(seq.M(n) / ((n + 1) * seq.M(n + 1)) for n in range(N + 1))


def closure_max(seq: RefSeq, a: int, b: int):
    return max((seq.M(n + 1) / seq.M(n)) ** (mpf(1) / n) for n in range(a, b + 1))


def inclusion_max(M: RefSeq, N: RefSeq, a: int, b: int):
    return max((M.M(n) / N.M(n)) ** (mpf(1) / n) for n in range(a, b + 1))


def lower_hull(logs):
    """Lower convex hull of (n, logs[n]) keeping collinear points."""
    stack = []
    for k in range(len(logs)):
        while len(stack) >= 2:
            i, j = stack[-2], stack[-1]
            turn = (k - j) * logs[i] + (j - i) * logs[k] - (k - i) * logs[j]
            scale = (abs(logs[i]) + abs(logs[j]) + abs(logs[k]) + 1) * (k - i)
            if turn < -scale * mpf(2) ** (-(mp.prec - 24)):
                stack.pop()
            else:
                break
        stack.append(k)
    return tuple(stack)


def minorant_value(seq: RefSeq, vertices, n: int):
    if n in vertices:
        return seq.M(n)
    a = max(v for v in vertices if v <= n)
    b = min(v for v in vertices if v >= n)
    la, lb = mp.log(seq.M(a)), mp.log(seq.M(b))
    return mp.exp(((b - n) * la + (n - a) * lb) / (b - a))


def bang_K(max_order: int, tail_bits: int = 64) -> int:
    """Truncation index for a relative tail of 2**-tail_bits."""
    return max_order + tail_bits + 1


def bang_jet(seq: RefSeq, p: int, xi: Fraction, order: int, tol_bits: int):
    """Derivatives 0..order at xi of the untruncated extremal series, with an
    absolute error bound for each.

    Term k contributes M'_k (2 m_k)**(n-k) times the n-th derivative of the
    oscillator at 2 m_k xi (cosine for p = 2, C_p at xi = 0 otherwise).  For
    k > n the terms fall at least geometrically (the construction gate's
    log-convexity), so the sum stops once every order's term is below
    2**-tol_bits of its scale M'_n 2**n for four terms running.  Each term is
    computed at the precision its size needs; the sums run at the current
    precision."""
    full = mp.prec
    x = _mp(xi)
    scales = [seq.Mprime(n) * mpf(2) ** n for n in range(order + 1)]
    totals = [mpf(0)] * (order + 1)
    rel_bits, small, k = 0, 0, 0
    M_k = seq.M(0)
    while True:
        with mp.workprec(max(64, min(full, tol_bits + rel_bits + 64))):
            M_next = seq._base_value(seq.p * (k + 1))
            two_m = 2 * (k + 1) * M_next / M_k
            base = mp.factorial(k) * M_k / two_m ** k
            if p == 2:
                c, s = mp.cos_sin(two_m * x)
                rot = (c, -s, -c, s)
            terms = []
            for n in range(order + 1):
                mag = base * two_m ** n
                osc = rot[n % 4] if p == 2 else (1 if n % p == 0 else 0)
                terms.append((mag, mag * osc))
        worst = max(mag / scales[n] for n, (mag, _) in enumerate(terms))
        for n, (_, term) in enumerate(terms):
            totals[n] += term
        if k > order:
            rel_bits = min(0, int(mp.log(worst, 2)))
            small = small + 1 if worst < mpf(2) ** -tol_bits else 0
            if small >= 4:
                return totals, [sc * mpf(2) ** (1 - tol_bits) for sc in scales]
        M_k = M_next
        k += 1


def cp_jet(p: int, x, order: int):
    """Derivatives 0..order of C_p(x) = sum x**(jp)/(jp)! at any real x:
    the n-th is the sum over m >= n, p | m, of x**(m-n)/(m-n)!."""
    eps = mpf(2) ** (-(mp.prec + 8))
    terms = [mpf(1)]
    while len(terms) <= 2 * abs(x) + order + 4 or abs(terms[-1]) >= eps * (abs(terms[-2]) + 1):
        terms.append(terms[-1] * x / len(terms))
    return [
        mp.fsum(terms[m - n] for m in range(n, n + len(terms)) if m % p == 0)
        for n in range(order + 1)
    ]


def poly_derivative(coeffs, n: int, x):
    return mp.fsum(
        c * mp.factorial(j) / mp.factorial(j - n) * x ** (j - n)
        for j, c in enumerate(coeffs) if j >= n
    )


def model_jet(model, xq: Fraction, order: int, seq: "RefSeq", tol_bits: int):
    """Derivatives 0..order of a model at the rational point xq and an
    absolute error bound for each.  Models: ("cp", p), ("poly", coeffs),
    ("compose", inner, q) and ("bang", 2), the cosine extremal series over
    the norm's own sequence."""
    kind = model[0]
    x = _mp(xq)
    exact = [mpf(0)] * (order + 1)
    if kind == "bang":
        return bang_jet(seq, 2, xq, order, tol_bits)
    if kind == "cp":
        return cp_jet(model[1], x, order), exact
    if kind == "poly":
        return [poly_derivative([_mp(c) for c in model[1]], n, x) for n in range(order + 1)], exact
    if kind == "compose":
        inner, q = model[1], model[2]
        outer, _ = model_jet(inner, xq ** q, order, seq, tol_bits)
        return _compose_power_jet(outer, x, q, order), exact
    raise ValueError(kind)


def _compose_power_jet(outer, x, q: int, order: int):
    """Jet of h(t) = f(t**q) at x from the jet of f at x**q, by composing
    truncated Taylor series: h(x+t) = sum_k f^(k)(x**q) u(t)**k / k! with
    u(t) = (x+t)**q - x**q."""
    u = [mpf(0)] + [mp.binomial(q, j) * x ** (q - j) if j <= q else mpf(0) for j in range(1, order + 1)]
    coeffs = [mpf(0)] * (order + 1)
    power = [mpf(1)] + [mpf(0)] * order
    for k in range(order + 1):
        f_k = outer[k] / mp.factorial(k)
        for i in range(order + 1):
            coeffs[i] += f_k * power[i]
        new = [mpf(0)] * (order + 1)
        for i, a in enumerate(power):
            if a:
                for j in range(1, order + 1 - i):
                    new[i + j] += a * u[j]
        power = new
    return [coeffs[n] * mp.factorial(n) for n in range(order + 1)]


def class_norm(model, seq: RefSeq, xs, r: Fraction, n_max: int, tol_bits: int):
    """max over n <= n_max and x in xs of |f^(n)(x)| / (r**n n! M_n), and an
    absolute error bound."""
    rr = _mp(r)
    best, err = None, mpf(0)
    for xq in xs:
        jet, errs = model_jet(model, xq, n_max, seq, tol_bits)
        for n in range(n_max + 1):
            den = rr ** n * mp.factorial(n) * seq.M(n)
            v = abs(jet[n]) / den
            best = v if best is None else max(best, v)
            err = max(err, errs[n] / den)
    return best, err


# -- containment ---------------------------------------------------------------------


def to_fraction(value) -> Fraction:
    """The exact rational value of an mpf."""
    sign, man, exp, _ = value._mpf_
    q = Fraction(man) * 2 ** exp if exp >= 0 else Fraction(man, 2 ** -exp)
    return -q if sign else q


def contains(lo: Fraction, hi: Fraction, value, prec: int, abs_err=0) -> bool:
    """Whether [lo, hi] contains a reference value computed at ``prec``
    bits, allowing that value's own relative rounding error and an absolute
    truncation error ``abs_err``."""
    v = to_fraction(value)
    slack = abs(v) / 2 ** (prec - 24) + (to_fraction(abs_err) if abs_err else 0)
    return lo <= v + slack and v - slack <= hi
