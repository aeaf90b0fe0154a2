"""Series combinatorics, inequality certificates, and composite derivatives.

Polynomial oracles here are independent of the code under test: plain
coefficient-list compose/differentiate/evaluate in exact rationals.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from carleman.comb import (
    TruncatedPowerSeries,
    alpha_b_coefficients,
    alpha_diag_derivative,
    b_coefficient_bound_check,
    composite_derivative,
    composition_sum_oracle,
    lemma1_check,
    lemma2_check,
    log_power_coefficients,
    root_series_coefficients,
    stirling_factorial_bounds_check,
    stirling_ineq_check,
    stirling_sweep,
    taylor_remainder_reconstruct,
)
from carleman import comb
from carleman.scalar import Interval, ScalarConfig, iv_e, iv_pow, refine
from carleman.seqcore import Trend, Verdict, Witness

F = Fraction
EXACT = ScalarConfig(mode="exact")


# -- polynomial oracle helpers ---------------------------------------------------


def poly_eval(coeffs, x):
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_diff(coeffs):
    return [c * i for i, c in enumerate(coeffs)][1:] or [F(0)]


def poly_compose(outer, inner):
    acc = [F(0)]
    for c in reversed(outer):
        # acc = acc * inner + c
        prod = [F(0)] * (len(acc) + len(inner) - 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(inner):
                prod[i + j] += a * b
        prod[0] += c
        acc = prod
    return acc


def poly_jet(coeffs, x, order):
    out = []
    cur = list(coeffs)
    for _ in range(order + 1):
        out.append(poly_eval(cur, x))
        cur = poly_diff(cur)
    return out


def poly_substitute_power(coeffs, p):
    out = [F(0)] * ((len(coeffs) - 1) * p + 1)
    for j, c in enumerate(coeffs):
        out[j * p] = c
    return out


# -- truncated power series -------------------------------------------------------


def test_series_window_invariant():
    s = TruncatedPowerSeries.from_coeffs([1, 2, 3], 1, 3)
    assert s.coeff(0) == 0 and s.coeff(2) == 2
    with pytest.raises(ValueError):
        s.coeff(4)
    with pytest.raises(ValueError):
        TruncatedPowerSeries.from_coeffs([1, 2], 1, 3)
    z = TruncatedPowerSeries.zero(5)
    assert z.valuation > z.order and z.coeffs == ()
    assert all(z.coeff(n) == 0 for n in range(6))


def test_series_mul_truncates_consistently():
    a = TruncatedPowerSeries.from_coeffs([1, 1, 1, 1], 0, 3)  # 1+x+x^2+x^3
    sq = a * a
    assert [sq.coeff(n) for n in range(4)] == [1, 2, 3, 4]
    assert sq.order == 3


def _reference_mul(x, y):
    """The product by one Fraction at a time, over the common order."""
    order = min(x.order, y.order)
    val = x.valuation + y.valuation
    if val > order:
        return TruncatedPowerSeries.zero(order)
    coeffs = [
        sum((x.coeff(i) * y.coeff(n - i) for i in range(n + 1)), Fraction(0))
        for n in range(val, order + 1)
    ]
    return TruncatedPowerSeries(tuple(coeffs), val, order)


def test_series_mul_matches_the_fraction_convolution():
    rng = random.Random(17)

    def series():
        order = rng.randint(0, 14)
        val = rng.randint(0, order + 1)
        if val > order:
            return TruncatedPowerSeries.zero(order)
        big = rng.choice((5, 10 ** 30))
        coeffs = [
            Fraction(rng.randint(-big, big), rng.choice((1, rng.randint(1, big))))
            for _ in range(order - val + 1)
        ]
        return TruncatedPowerSeries.from_coeffs(coeffs, val, order)

    shapes = set()
    for _ in range(400):
        x, y = series(), series()
        got = x * y
        assert got == _reference_mul(x, y), (x, y)
        assert all(type(c) is Fraction for c in got.coeffs)
        shapes.add((x.order != y.order, x.valuation + y.valuation > 0, got.coeffs == ()))
    assert shapes >= {(True, True, False), (False, False, False), (True, True, True)}


def test_log_power_coefficient_examples():
    c1 = log_power_coefficients(1, 8)
    assert all(c1.coeff(n) == F(1, n) for n in range(1, 9))
    c2 = log_power_coefficients(2, 4)
    assert c2.coeff(2) == 1
    assert c2.coeff(3) == 1
    assert c2.coeff(4) == F(11, 12)


def test_composition_oracle_examples_and_guard():
    assert composition_sum_oracle(1, 7) == F(1, 7)
    assert composition_sum_oracle(2, 3) == 1  # (1,2), (2,1)
    for n in (1, 4, 9):
        assert composition_sum_oracle(n, n) == 1
    with pytest.raises(ValueError):
        composition_sum_oracle(2, 26)
    with pytest.raises(ValueError):
        composition_sum_oracle(5, 3)


def test_convolution_matches_enumeration():
    for k in range(1, 7):
        series = log_power_coefficients(k, 14)
        for n in range(k, 15):
            assert series.coeff(n) == composition_sum_oracle(k, n), (k, n)


def test_series_power_additivity():
    for k1, k2 in ((1, 2), (2, 3), (3, 4)):
        lhs = log_power_coefficients(k1 + k2, 12)
        rhs = log_power_coefficients(k1, 12) * log_power_coefficients(k2, 12)
        assert all(lhs.coeff(n) == rhs.coeff(n) for n in range(1, 13))


def test_lemma1_small_sweep_and_stability():
    assert lemma1_check(6, 12).ok
    assert lemma1_check(6, 12, ScalarConfig(bits=512)).ok
    # the k=1, n=1 instance: 1 <= 2e
    one = log_power_coefficients(1, 1).coeff(1)
    assert one == 1 and lemma1_check(1, 1).ok


def test_root_series_values_and_product_formula():
    for p in (2, 3, 5):
        a = root_series_coefficients(p, 24)
        assert a.coeff(1) == F(1, p)
        # magnitude oracle: |a_i| = ((p-1)(2p-1)...((i-1)p-1)) / (i! p^i)
        prod = 1
        for i in range(1, 25):
            if i > 1:
                prod *= (i - 1) * p - 1
            assert abs(a.coeff(i)) == F(prod, factorial(i) * p ** i), (p, i)
            assert abs(a.coeff(i)) <= F(1, i)
            # signs alternate starting positive
            assert a.coeff(i) == (-1) ** (i - 1) * abs(a.coeff(i))
    assert abs(root_series_coefficients(2, 2).coeff(2)) == F(1, 8)


def test_root_series_inverts_power():
    # (1 + sum a_i u^i)**p == 1 + u up to truncation
    for p in (2, 3, 4):
        order = 12
        a = root_series_coefficients(p, order)
        one_plus = TruncatedPowerSeries.from_coeffs(
            [F(1)] + [a.coeff(i) for i in range(1, order + 1)], 0, order
        )
        powed = one_plus.pow_int(p)
        assert powed.coeff(0) == 1 and powed.coeff(1) == 1
        assert all(powed.coeff(i) == 0 for i in range(2, order + 1))


def test_alpha_b_examples():
    a = root_series_coefficients(2, 10)
    b1 = alpha_b_coefficients(2, 1, 10)
    assert all(b1.coeff(j) == a.coeff(j) for j in range(1, 11))
    assert alpha_b_coefficients(2, 2, 4).coeff(2) == F(1, 8)
    # valuation: k-fold products vanish below k
    assert alpha_b_coefficients(2, 4, 10).coeff(3) == 0


def test_b_bound_sweep():
    for p in (2, 3):
        assert b_coefficient_bound_check(p, 8, 30).ok


def test_alpha_diag_derivative_examples():
    assert alpha_diag_derivative(2, 1, 1, 1, EXACT).fraction() == F(1, 2)
    # scaling: value at x equals value at 1 times x**(-(pn-k)/p), checked at
    # an x whose root is exact
    from carleman.scalar import exact_nth_root

    for (p, k, n, x) in ((2, 1, 2, F(1, 4)), (2, 2, 3, F(4)), (3, 1, 2, F(1, 8))):
        at_x = alpha_diag_derivative(p, k, n, x, EXACT).fraction()
        at_1 = alpha_diag_derivative(p, k, n, 1, EXACT).fraction()
        m = p * n - k
        xr = exact_nth_root(F(x), p)
        assert at_x == at_1 * xr ** (-m)
    # degenerate n < k is zero
    assert alpha_diag_derivative(2, 5, 2, F(1, 3), EXACT).fraction() == 0


def test_lemma2_quick_sweep():
    assert lemma2_check((2, 3), 10, (F(1, 4), F(1, 2), 1, 2)).ok


def test_lemma2_point_free_matches_the_per_point_bound():
    # the bound as stated, x by x: |alpha_k^(n)(x,x)| against an enclosure of
    # (2e)**n * n**(n-k) * x**(-(pn-k)/p)
    cfg = ScalarConfig(mode="interval", bits=128)
    e = iv_e(128)
    grid = (F(1, 4), F(1, 2), F(1), F(2))
    for p in (2, 3):
        for n in range(1, 9):
            for k in range(1, n + 1):
                for x in grid:
                    lhs = abs(alpha_diag_derivative(p, k, n, x, cfg).interval())
                    rhs = (
                        Interval(2 * e.lo, 2 * e.hi).pow_int(n)
                        * F(n) ** (n - k)
                        * iv_pow(Interval.point(x), F(-(p * n - k), p), 128)
                    )
                    assert lhs.hi <= rhs.lo, (p, k, n, x)
        assert lemma2_check((p,), 8, grid).ok


def test_lemma2_fails_names_the_first_grid_point(monkeypatch):
    monkeypatch.setattr(
        comb, "_two_e_powers", lambda n_max, bits: ([F(0)] * (n_max + 1),) * 2
    )
    v = lemma2_check((2, 3), 4, (F(1, 4), F(1, 2), 1, 2))
    assert v.outcome == "fails"
    assert str(v.witness) == "n=1: p=2, k=1, x=1/4"


def test_stirling_single_and_sweep():
    assert stirling_ineq_check(2, 1, 0).ok  # 1/2 <= e^2
    assert stirling_ineq_check(2, 1, 1).ok  # 1 <= e^2
    with pytest.raises(ValueError):
        stirling_ineq_check(2, 1, 2)
    assert stirling_sweep((2, 3), 20).ok


def test_stirling_factorial_two_sided():
    assert stirling_factorial_bounds_check(40).ok


# -- composite derivative ----------------------------------------------------------


def test_composite_identity_inner():
    # g = x: inner jet (x, 1, 0, 0, ...)
    x = F(1, 3)
    f = [F(2), F(-1), F(5), F(7)]  # cubic
    for n in (1, 2, 3):
        outer = poly_jet(f, x, n)
        inner = [x, F(1)] + [F(0)] * (n - 1)
        got = composite_derivative(outer, inner, n).fraction()
        assert got == poly_jet(f, x, n)[n]


def test_composite_chain_rule_order_one():
    x = F(2, 5)
    f = [F(1), F(3), F(-2)]
    g = [F(0), F(2), F(1), F(4)]
    gx = poly_eval(g, x)
    outer = poly_jet(f, gx, 1)
    inner = poly_jet(g, x, 1)
    got = composite_derivative(outer, inner, 1).fraction()
    assert got == poly_eval(poly_diff(f), gx) * poly_eval(poly_diff(g), x)


def test_composite_cubics_match_symbolic_expansion():
    rng = random.Random(3)
    for _ in range(20):
        f = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
        g = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
        x = F(1, 2)
        comp = poly_compose(f, g)
        gx = poly_eval(g, x)
        for n in (1, 2, 3, 4, 5):
            outer = poly_jet(f, gx, n)
            inner = poly_jet(g, x, n)
            got = composite_derivative(outer, inner, n).fraction()
            assert got == poly_jet(comp, x, n)[n], (f, g, n)


def test_composite_jet_too_short():
    with pytest.raises(ValueError):
        composite_derivative([F(1), F(2)], [F(0), F(1)], 2)


# -- remainder identity --------------------------------------------------------------


def test_reconstruct_zero_for_low_degree():
    # f of degree < n has vanishing n-th derivative
    f = [F(3), F(1), F(2)]  # degree 2
    p, xi, n = 2, F(1, 2), 4
    Fpoly = poly_substitute_power(f, p)
    F_jet = poly_jet(Fpoly, xi, n)
    f_jet0 = poly_jet(f, F(0), n - 1)
    got = taylor_remainder_reconstruct(f_jet0, F_jet, p, xi).fraction()
    assert got == 0


def test_reconstruct_monomial_gives_factorial():
    for n in (2, 3, 5):
        f = [F(0)] * n + [F(1)]  # x**n
        xi = F(1, 2)  # x = 1/4
        Fpoly = poly_substitute_power(f, 2)
        F_jet = poly_jet(Fpoly, xi, n)
        f_jet0 = poly_jet(f, F(0), n - 1)
        got = taylor_remainder_reconstruct(f_jet0, F_jet, 2, xi, x=F(1, 4)).fraction()
        assert got == factorial(n)


def test_reconstruct_random_polynomials():
    rng = random.Random(11)
    for _ in range(40):
        deg = rng.randint(1, 8)
        f = [F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(deg + 1)]
        p = rng.choice((2, 3))
        n = rng.randint(1, 8)
        xi = F(rng.randint(1, 15), 16)
        Fpoly = poly_substitute_power(f, p)
        F_jet = poly_jet(Fpoly, xi, n)
        f_jet0 = poly_jet(f, F(0), n - 1)
        got = taylor_remainder_reconstruct(f_jet0, F_jet, p, xi).fraction()
        want = poly_jet(f, xi ** p, n)[n]
        assert got == want, (f, p, n, xi)


def _fraction_reconstruct(f0, Fj, p, xi):
    """The reconstruction with P^(k)(xi) summed term by term on Fractions,
    the form the integer Horner evaluation replaced."""
    n = len(Fj) - 1

    def P_deriv(k):
        total = F(0)
        for j in range(n):
            e = p * j
            if e < k:
                continue
            falling = 1
            for i in range(k):
                falling *= e - i
            total += f0[j] * falling * xi ** (e - k) / factorial(j)
        return total

    root = root_series_coefficients(p, n) if p >= 2 else TruncatedPowerSeries(
        (F(1),) + (F(0),) * (n - 1), 1, n
    )
    power, total = root, F(0)
    for k in range(1, n + 1):
        if k > 1:
            power = power * root
        alpha = factorial(n) * power.coeff(n) / factorial(k) * xi ** (-(p * n - k))
        total += (Fj[k] - P_deriv(k)) * alpha
    return total


def test_reconstruct_equals_the_fraction_sum_on_arbitrary_jets():
    rng = random.Random(17)
    for _ in range(300):
        p = rng.choice((1, 2, 3, 4))
        n = rng.randint(1, 9)
        f0 = [F(rng.randint(-40, 40), rng.randint(1, 30)) for _ in range(n + rng.randint(0, 2))]
        Fj = [F(rng.randint(-40, 40), rng.randint(1, 30)) for _ in range(n + 1)]
        xi = F(rng.randint(1, 300), rng.randint(1, 300))
        got = taylor_remainder_reconstruct(f0, Fj, p, xi).fraction()
        assert got == _fraction_reconstruct(f0, Fj, p, xi), (p, n, f0, Fj, xi)
    # the jets are exact: an interval anywhere is refused, f(0) included,
    # although f(0) never enters the sum
    Fj = [F(1), F(2), F(3)]
    iv = Interval(F(1), F(2))
    for f0, Fjet, name in (
        ([iv, F(5)], Fj, "f jet at 0"),
        ([F(1), iv], Fj, "f jet at 0"),
        ([F(1), F(5)], [F(1), F(2), iv], "F jet at xi"),
    ):
        with pytest.raises(TypeError, match=name):
            taylor_remainder_reconstruct(f0, Fjet, 2, F(1, 2))


def test_reconstruct_inconsistent_x_rejected():
    f = [F(1), F(1)]
    F_jet = poly_jet(poly_substitute_power(f, 2), F(1, 2), 2)
    with pytest.raises(ValueError):
        taylor_remainder_reconstruct([F(1)], F_jet, 2, F(1, 2), x=F(1, 3))


def test_composite_reproduces_power_substitution_jets():
    # inner jet of x -> x**p reproduces derivatives of F(t) = f(t**p)
    rng = random.Random(5)
    for _ in range(10):
        deg = rng.randint(1, 5)
        f = [F(rng.randint(-9, 9)) for _ in range(deg + 1)]
        p = rng.choice((2, 3))
        t = F(2, 3)
        inner_poly = [F(0)] * p + [F(1)]  # t**p
        Fpoly = poly_substitute_power(f, p)
        for n in (1, 2, 3, 4):
            outer = poly_jet(f, t ** p, n)
            inner = poly_jet(inner_poly, t, n)
            got = composite_derivative(outer, inner, n).fraction()
            assert got == poly_jet(Fpoly, t, n)[n]


def _rejected_triples(p_set, n_max, e_lo):
    """(p, n, k) where the direct n**m * den**pn <= m! * num**pn test fails."""
    num, den = e_lo.numerator, e_lo.denominator
    return [
        (p, n, p * n - m)
        for p in p_set
        for n in range(1, n_max + 1)
        for m in range(1, p * n + 1)
        if not n ** m * den ** (p * n) <= factorial(m) * num ** (p * n)
    ]


def test_stirling_sweep_hands_on_exactly_the_rejected_triples(monkeypatch):
    seen = []

    def spy(p, n, k, cfg):
        seen.append((p, n, k))
        return Verdict.holds((n, n))

    monkeypatch.setattr(comb, "stirling_ineq_check", spy)
    cfg = ScalarConfig(bits=64)
    p_set, n_max = (2, 3, 5), 9
    assert stirling_sweep(p_set, n_max, cfg).ok
    assert seen == _rejected_triples(p_set, n_max, iv_e(64).lo)
    # lower endpoints forced far below e make the cheap test reject
    for lo in (F(13, 10), F(11, 10), F(1)):
        monkeypatch.setattr(comb, "iv_e", lambda bits, lo=lo: Interval(lo, F(3)))
        seen.clear()
        assert stirling_sweep(p_set, n_max, cfg).ok
        expected = _rejected_triples(p_set, n_max, lo)
        assert expected and seen == expected, lo


def _full_stirling_sweep(p_set, n_max, cfg):
    """The sweep walking every m of every (p, n), the loop that the single
    comparison at m = n now guards."""
    e = comb.iv_e(cfg.bits)
    num, den = e.lo.numerator, e.lo.denominator
    for p in p_set:
        for n in range(1, n_max + 1):
            pn = p * n
            left, right = den ** pn, num ** pn
            for m in range(1, pn + 1):
                left *= n
                right *= m
                if left > right:
                    single = comb.stirling_ineq_check(p, n, pn - m, cfg)
                    if not single.ok:
                        return Verdict(
                            single.outcome, (1, n_max), witness=single.witness,
                            trend=single.trend,
                        )
    return Verdict.holds((1, n_max))


def test_stirling_sweep_equals_the_full_m_loop(monkeypatch):
    cfg = ScalarConfig(bits=64, max_doublings=2)
    cases = [((2, 3, 5), 30), ((2,), 1), ((7, 2), 12)]
    for p_set, n_max in cases:
        assert stirling_sweep(p_set, n_max, cfg) == _full_stirling_sweep(p_set, n_max, cfg)
    # lower endpoints of e far too small fail the m = n test; the m loop then
    # hands the rejected k on, where the certified check Fails or not
    outcomes = set()
    for lo, hi in ((F(13, 10), F(3)), (F(1), F(11, 10)), (F(2), F(21, 10))):
        monkeypatch.setattr(comb, "iv_e", lambda bits, lo=lo, hi=hi: Interval(lo, hi))
        for p_set, n_max in cases:
            got = stirling_sweep(p_set, n_max, cfg)
            assert got == _full_stirling_sweep(p_set, n_max, cfg), (lo, hi, p_set)
            outcomes.add(got.outcome)
    assert outcomes == {"holds", "fails", "inconclusive"}


def _recursive_compositions(n, k):
    """Compositions of n into k positive parts, first part first: a
    reference enumerator that shares nothing with the cut-point oracle."""
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _recursive_compositions(n - first, k - 1):
            yield (first,) + rest


def _fraction_composition_sum(k, n):
    """The Fraction sum that the common-denominator kernel replaced, with
    the terms of equal part products added as one."""
    counts = Counter(math.prod(parts) for parts in _recursive_compositions(n, k))
    return sum((F(c, prod) for prod, c in counts.items()), F(0))


def test_composition_oracle_equals_the_fraction_sum():
    # every pair up to n = 14, and the pairs of verify's default
    # corollary-composition-equality sweep (k <= 6, n <= 18)
    pairs = [(k, n) for n in range(1, 15) for k in range(1, n + 1)]
    pairs += [(k, n) for n in range(15, 19) for k in range(1, 7)]
    for k, n in pairs:
        assert composition_sum_oracle(k, n) == _fraction_composition_sum(k, n), (k, n)


# -- the integer coefficient sweep against the Fraction sweep it replaced ------------


def _fraction_scaled_power_sweep(base, k_max, n_max, cfg, witness, weight=lambda n: 1):
    """The sweep of comb._scaled_power_sweep in Fractions: each left side a
    reduced Fraction, divided against each bound's endpoints."""
    window = (1, n_max)
    weights = [weight(n) for n in range(1, n_max + 1)]
    lhs, power = [], base
    for k in range(1, k_max + 1):
        if k > 1:
            power = power * base
        lhs.append([abs(power.coeff(n) / factorial(k)) * w for n, w in enumerate(weights, 1)])
    unresolved = None

    def decide(bits):
        nonlocal unresolved
        lows, highs = comb._two_e_powers(n_max, bits)
        for k, row in enumerate(lhs, 1):
            for n, c in enumerate(row, 1):
                if c <= lows[n] / n ** k:
                    continue
                if c > highs[n] / n ** k:
                    return Verdict.fails(window, witness(k, n, c, highs[n] / n ** k))
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


def _coefficient_sweeps(cfg):
    """lemma1, b-coefficient and lemma2 verdicts on several sweep sizes."""
    grid = (F(1, 4), F(1, 2), 1, 2)
    out = [lemma1_check(k, n, cfg) for k, n in ((1, 1), (3, 5), (6, 12), (12, 30), (40, 40))]
    out += [
        b_coefficient_bound_check(p, k, n, cfg)
        for p in (2, 3, 5) for k, n in ((1, 4), (4, 9), (10, 30))
    ]
    out += [lemma2_check(p_set, n, grid, cfg) for p_set, n in (((2,), 6), ((2, 3, 5), 25))]
    return out


def test_integer_sweep_gives_the_fraction_sweeps_verdicts(monkeypatch):
    cfg = ScalarConfig(bits=128)
    got = _coefficient_sweeps(cfg)
    assert all(v.ok for v in got)
    monkeypatch.setattr(comb, "_scaled_power_sweep", _fraction_scaled_power_sweep)
    assert _coefficient_sweeps(cfg) == got


def test_integer_sweep_fails_and_inconclusives_match_the_fraction_sweep(monkeypatch):
    cfg = ScalarConfig(bits=64, max_doublings=1)
    base = comb._log_series(12)

    def witness(k, n, c, bound_hi):
        return Witness(n, (f"k={k}", f"lhs={c}", f"bound<{bound_hi}"))

    # a weight scaled by 10**6 from n = 5 on fails first at k = 1, n = 5,
    # with the exact left side and the bound in lowest terms in the witness
    million = lambda n: F(10 ** 6 * factorial(n), n ** n) if n >= 5 else 1
    got = comb._scaled_power_sweep(base, 6, 12, cfg, witness, million)
    assert got.outcome == "fails" and str(got.witness).startswith("n=5: k=1, lhs=")
    assert got == _fraction_scaled_power_sweep(base, 6, 12, cfg, witness, million)
    # with e enclosed by the point 1/2, c[1,n] = 1/n meets its bound 1/n
    # exactly at every n, and a left side equal to its bound holds
    monkeypatch.setattr(comb, "iv_e", lambda bits: Interval.point(F(1, 2)))
    assert lemma1_check(1, 12, cfg).ok
    wide = {"fails": Interval(F(1, 100), F(1, 50)), "inconclusive": Interval(F(1, 100), F(100))}
    for outcome, e in wide.items():
        # an enclosure of e far too small fails every check; one too wide
        # leaves the first pair unresolved at the precision cap
        monkeypatch.setattr(comb, "iv_e", lambda bits, e=e: e)
        got = _coefficient_sweeps(cfg)
        assert {v.outcome for v in got} == {outcome}
        with monkeypatch.context() as m:
            m.setattr(comb, "_scaled_power_sweep", _fraction_scaled_power_sweep)
            assert _coefficient_sweeps(cfg) == got
