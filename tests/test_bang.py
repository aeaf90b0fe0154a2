"""Extremal series, C_p oscillators, growth envelopes, and class norms."""

import itertools
import random
import time
from fractions import Fraction
from math import factorial

import mpmath
import pytest

from carleman.bang import (
    BangFunction,
    BangModel,
    CpModel,
    PolynomialModel,
    PowerCompositeModel,
    _bang_coef,
    _bang_majorant,
    _bang_sum,
    _cp_series_interval,
    _dyadic,
    bang_derivative,
    bang_envelope_check,
    bang_lower_bound_certify,
    class_norm,
    cp_bound_check,
    cp_derivative,
    induced_f_derivative,
    theorem1_bound,
)
from carleman import bang as bang_module
from carleman.scalar import (
    DEFAULT_CONFIG,
    Interval,
    ScalarConfig,
    iv_cos,
    iv_e,
    iv_sin,
    outward_pow_product,
)
from carleman.seqcore import (
    Analytic, Custom, Gevrey, IteratedLog, PowerSub, SequenceError, WeightSequence,
    is_increasing, is_log_convex,
)

F = Fraction
IVAL = ScalarConfig(mode="interval", bits=128)


def _contains_mpf(enc: Interval, x) -> bool:
    sign, man, exp, _ = x._mpf_
    v = F(int(man)) * F(2) ** exp
    if sign:
        v = -v
    return enc.contains(v)


# -- C_p ---------------------------------------------------------------------------


def test_cp_eval_matches_exp_and_cosh():
    mpmath.mp.prec = 200
    for x in (F(1, 3), F(-1, 2), F(1)):
        e1 = cp_derivative(1, 0, x, IVAL).interval()
        assert _contains_mpf(e1, mpmath.exp(mpmath.mpf(x.numerator) / x.denominator))
        e2 = cp_derivative(2, 0, x, IVAL).interval()
        assert _contains_mpf(e2, mpmath.cosh(mpmath.mpf(x.numerator) / x.denominator))
        assert e1.width < F(1, 2 ** 100)


def test_cp_at_zero_is_exact():
    for p in (1, 2, 3, 5):
        assert cp_derivative(p, 0, 0, ScalarConfig(mode="exact")).fraction() == 1
        assert cp_derivative(p, p, 0, ScalarConfig(mode="exact")).fraction() == 1
        if p >= 2:
            assert cp_derivative(p, 1, 0, ScalarConfig(mode="exact")).fraction() == 0


def test_cp_tail_points_with_the_term_signs():
    # even p, x < 0, odd n: every series term is negative
    mpmath.mp.prec = 1024
    for bits in (16, 64, 256):
        enc = CpModel(2).derivative_enclosure(1, F(-1, 2), bits)
        assert _contains_mpf(enc, mpmath.sinh(mpmath.mpf(-1) / 2))


def test_cp_derivative_periodicity():
    # C_p^(n+p) == C_p^(n) within combined enclosure widths
    for p in (2, 3):
        for n in (0, 1, 2):
            for x in (F(1, 2), F(-3, 4)):
                a = cp_derivative(p, n, x, IVAL).interval()
                b = cp_derivative(p, n + p, x, IVAL).interval()
                assert a.overlaps(b)
                assert a.width + b.width < F(1, 2 ** 64)


def test_cp_derivative_reduces_to_eval():
    for p in (2, 3, 5):
        for x in (F(1, 4), F(-1)):
            a = cp_derivative(p, p, x, IVAL).interval()
            b = cp_derivative(p, 0, x, IVAL).interval()
            assert a.overlaps(b)


def test_cp_bound_check_small():
    grid = [F(i, 5) for i in range(-5, 6)]
    for p in (1, 2, 3):
        assert cp_bound_check(p, 2 * p, grid).ok
    with pytest.raises(ValueError):
        cp_bound_check(2, 4, [F(3, 2)])


def test_cp_derivatives_on_the_unit_interval_are_majorized_at_one():
    grid = [F(-1) + F(2 * i, 50) for i in range(51)]
    for p in range(2, 6):
        for n in range(4 * p + 1):
            top = _cp_series_interval(p, n, F(1), 128).hi
            for x in grid:
                assert abs(_cp_series_interval(p, n, x, 128)).hi <= top, (p, n, x)
    # the certificate no longer reads the grid beyond validating it
    assert cp_bound_check(3, 12, []).ok
    with pytest.raises(ValueError):
        cp_bound_check(0, 4, grid)


def test_cp_bound_check_exp_holds_globally():
    verdict = cp_bound_check(1, 4, [F(-1), F(0), F(1)])
    assert verdict.ok and verdict.scope == "global"
    with pytest.raises(ValueError):
        cp_bound_check(1, 4, [F(0), F(3, 2)])


def test_cp_domain_validation():
    with pytest.raises(ValueError):
        cp_derivative(2, 0, F(3, 2))
    with pytest.raises(ValueError):
        cp_derivative(0, 1, F(1, 2))


# -- Bang construction ---------------------------------------------------------------


def test_bang_gate_rejects_non_log_convex():
    bumpy = Custom(table=[1, 50, 51, 52, 53, 54, 55, 56, 57, 58] + [59] * 80)
    with pytest.raises(SequenceError):
        BangFunction(bumpy, p=2, max_order=2, K=6)


def test_bang_truncation_policy():
    seq = IteratedLog(2)
    B = BangFunction(seq, p=2, max_order=10, tail_target=F(1, 2 ** 64))
    assert B.tail_scope == "global"
    for n in range(11):
        assert B.relative_tail(n) <= B.tail_target == F(1, 2 ** 64)
    # K is the smallest truncation that meets the target
    shorter = BangFunction(seq, p=2, max_order=10, tail_target=F(1, 2 ** 64), K=B.K - 1)
    assert shorter.relative_tail(10) > B.tail_target


def _scopes(seq, max_order):
    B = BangFunction(seq, p=2, max_order=max_order)
    verdicts = (
        is_increasing(seq, (1, 16)),
        is_log_convex(seq, (1, 16)),
        is_log_convex(seq, (1, 16), "derived"),
    )
    return B.tail_scope, B.K, tuple(v.scope for v in verdicts)


@pytest.mark.parametrize("max_order", [2, 6, 12])
def test_an_offset_at_the_tower_gets_the_default_shift_claims(max_order):
    # iterlog(1) is iterlog(1, 3); an offset above the tower gets the same
    # global scopes and the same truncation
    default = _scopes(IteratedLog(1), max_order)
    assert default[0] == "global" and default[2] == ("global",) * 3
    assert _scopes(IteratedLog(1, 3), max_order) == default
    assert _scopes(IteratedLog(1, 5), max_order) == default
    # below the depth-2 tower (16) the window scope and classical tail stay
    below = _scopes(IteratedLog(2, 9), max_order)
    assert below == ("window", max_order + 65, ("window",) * 3)


def _ceil_log2(x: Fraction) -> int:
    """The smallest o with 2**o >= x, for x >= 1."""
    return (-(-x.numerator // x.denominator) - 1).bit_length()


@pytest.mark.parametrize("tau", [F(1, 2 ** 64), F(3, 10 ** 20), F(1, 2 ** 1000)])
def test_window_scope_truncation_keeps_the_classical_tail(tau):
    # no global log-convexity oracle: K and the tail are the classical ones
    seq = Custom(table=[1] * 1100)
    for max_order in (0, 6, 20):
        B = BangFunction(seq, p=2, max_order=max_order, tail_target=tau)
        assert B.tail_scope == "window"
        assert B.K == max_order + _ceil_log2(1 / tau) + 1
        for n in (0, max_order):
            assert B.relative_tail(n) == F(2) ** (n - B.K + 1)


@pytest.mark.parametrize("family", [Analytic, lambda: Custom(table=[1] * 1100)])
def test_truncation_at_a_tiny_target_is_cheap(family):
    # K is 431 (global scope) or 1007 (window scope), gate included
    times = []
    for _ in range(3):
        start = time.perf_counter()
        BangFunction(family(), p=2, max_order=6, tail_target=F(1, 2 ** 1000))
        times.append(time.perf_counter() - start)
    assert min(times) < 0.05


def _mp_fraction(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _mp_weight(seq, n: int):
    """M_n in plain mpmath at the current precision, from the family's
    definition."""
    if isinstance(seq, Analytic):
        return mpmath.mpf(1)
    if isinstance(seq, Gevrey):
        return mpmath.factorial(n) ** _mp_fraction(seq.s)
    if isinstance(seq, IteratedLog):

        def L(x):
            for _ in range(seq.k):
                x = mpmath.log(x)
            return x

        s = seq.shift
        return L(mpmath.mpf(s + n)) ** (s + n) / L(mpmath.mpf(s)) ** s
    assert isinstance(seq, PowerSub)
    return _mp_weight(seq.base, seq.p * n)


def _true_tail(seq, n: int, K: int):
    """The sum over k > K of t_k = M'_k (2 m_k)**(n-k), with M'_k = k! M_k
    and m_k = M'_{k+1} / M'_k, up to the first term below 2**-200 of the
    scale M'_n; returns the sum and the scale."""
    mprime = [mpmath.factorial(k) * _mp_weight(seq, k) for k in range(K + 2)]
    scale, total = mprime[n], mpmath.mpf(0)
    for k in itertools.count(K + 1):
        mprime.append(mpmath.factorial(k + 1) * _mp_weight(seq, k + 1))
        t = mprime[k] * (2 * mprime[k + 1] / mprime[k]) ** (n - k)
        total += t
        if t < scale * mpmath.mpf(2) ** -200:
            return total, scale


# factories, not sequences: a sequence kept alive keeps its series tables
_GLOBAL_FAMILIES = [
    Analytic,
    lambda: Gevrey(F(3, 2)),
    lambda: IteratedLog(1),
    lambda: PowerSub(IteratedLog(2), 2),
]


def test_sharper_tail_bounds_the_true_tail():
    """Soundness of the global-scope tail: relative_tail(n) M'_n is at least
    the true tail of the untruncated series, summed in mpmath at 4x the
    working bits, and half of it is not, for at least one case."""
    halves_fail = False
    with mpmath.workprec(4 * 128):
        for family in _GLOBAL_FAMILIES:
            seq = family()
            B = BangFunction(seq, p=2, max_order=8, tail_target=F(1, 2 ** 64))
            assert B.tail_scope == "global"
            for n in (0, 3, 8):
                true, scale = _true_tail(seq, n, B.K)
                bound = _mp_fraction(B.relative_tail(n)) * scale
                assert bound >= true, (seq.describe(), n)
                halves_fail |= bound / 2 < true
    assert halves_fail


def test_bang_odd_derivatives_vanish_at_zero():
    B = BangFunction(IteratedLog(2), p=2, max_order=9)
    for n in (1, 3, 7, 9):
        enc = bang_derivative(B, n, 0, IVAL).interval()
        assert enc.contains(0)
        tail = B.relative_tail(n) * (
            B.seq.enclosure(n, 128) * factorial(n)
        ).hi
        assert enc.width <= 2 * tail * F(101, 100)


def test_bang_second_derivative_sign_structure():
    # all terms share the cos(pi) = -1 sign at order 2
    B = BangFunction(IteratedLog(2), p=2, max_order=4)
    enc = bang_derivative(B, 2, 0, IVAL).interval()
    assert enc.hi < 0
    # term-wise oracle: the sum of -M'_k (2 m_k)^(2-k) over k <= K
    brute = Interval.point(0)
    for k in range(B.K + 1):
        mp = B._mprime(k, 128)
        brute = brute + mp * B._twice_ratio(k, 128).pow_int(2 - k) * (-1)
    assert enc.overlaps(brute)


def test_bang_derivative_requires_order_within_truncation():
    B = BangFunction(IteratedLog(2), p=2, max_order=3, K=10)
    with pytest.raises(ValueError):
        bang_derivative(B, 11, 0)


def test_bang_cp_variant_rejects_nonzero_xi():
    B = BangFunction(IteratedLog(2), p=3, max_order=3)
    with pytest.raises(ValueError):
        bang_derivative(B, 2, F(1, 2))


def test_bang_truncation_containment():
    # re-evaluating with a larger truncation stays within the smaller
    # enclosure up to its tail width
    seq = IteratedLog(2)
    small = BangFunction(seq, p=2, max_order=6, K=40)
    large = BangFunction(seq, p=2, max_order=6, K=48)
    for n in (0, 2, 5):
        a = bang_derivative(small, n, F(1, 3), IVAL).interval()
        b = bang_derivative(large, n, F(1, 3), IVAL).interval()
        assert a.widen(a.width).contains_interval(b)


def test_bang_lower_bound_monotone_in_truncation():
    seq = IteratedLog(2)
    prev_lo = None
    for K in (30, 38, 46):
        B = BangFunction(seq, p=2, max_order=8, K=K)
        enc = abs(bang_derivative(B, 8, 0, IVAL).interval())
        if prev_lo is not None:
            assert enc.lo >= prev_lo - F(1, 2 ** 20)
        prev_lo = enc.lo


def test_bang_lower_bound_certificates():
    B = BangFunction(IteratedLog(2), p=2, max_order=12)
    for n in (0, 1, 3, 6):
        assert bang_lower_bound_certify(B, n).ok
    C = BangFunction(IteratedLog(2), p=3, max_order=12)
    for n in (0, 1, 2, 4):
        assert bang_lower_bound_certify(C, n).ok


def test_induced_germ_derivative():
    B = BangFunction(IteratedLog(2), p=2, max_order=8)
    for n in (1, 2, 4):
        scalar, verdict = induced_f_derivative(B, n, IVAL)
        assert verdict.ok
        enc = abs(scalar.interval())
        target = (
            B.seq.enclosure(2 * n, 128) * factorial(2 * n)
        ) * F(factorial(n), factorial(2 * n))
        assert enc.hi >= target.lo


def test_envelope_check_small(monkeypatch):
    B = BangFunction(IteratedLog(2), p=2, max_order=6)
    grid = [F(i, 5) for i in range(-5, 6)]
    orders = _spy_on_derivative(monkeypatch)
    assert bang_envelope_check(B, 6, grid).ok
    # every order decides point-free: no grid evaluation, no trig
    assert orders == [] and not any(key[0] == "trig" for key in B.seq.memo)


def test_envelope_majorant_bounds_every_grid_point():
    # the derivatives are enclosed at 4x the precision: at xi = 0 and even n
    # the majorant is attained, so equal-precision enclosures can overlap it
    B = BangFunction(IteratedLog(2), p=2, max_order=8)
    grid = [F(i, 5) for i in range(-5, 6)]
    fine = ScalarConfig(mode="interval", bits=512)
    for n in range(9):
        top = _bang_majorant(B, n, 128).hi
        for x in grid:
            assert abs(bang_derivative(B, n, x, fine).interval()).hi <= top, (n, x)


def _spy_on_derivative(monkeypatch):
    orders = []
    real = bang_module.bang_derivative

    def spy(B, n, xi, cfg=DEFAULT_CONFIG):
        orders.append(n)
        return real(B, n, xi, cfg)

    monkeypatch.setattr(bang_module, "bang_derivative", spy)
    return orders


def test_envelope_grid_runs_only_for_undecided_orders(monkeypatch):
    B = BangFunction(IteratedLog(2), p=2, max_order=6)
    grid = [F(i, 2) for i in range(-2, 3)]
    real = bang_module._bang_majorant

    def blind_at_3(B, n, bits):
        return Interval.point(F(10) ** 30) if n == 3 else real(B, n, bits)

    monkeypatch.setattr(bang_module, "_bang_majorant", blind_at_3)
    orders = _spy_on_derivative(monkeypatch)
    verdict = bang_envelope_check(B, 6, grid)
    assert (verdict.outcome, verdict.trend.note) == (
        "inconclusive", "n=3: the envelope holds at the grid points only"
    )
    assert orders and set(orders) == {3}


def test_an_envelope_held_only_at_grid_points_is_inconclusive():
    # M'_k = 2**k, so the majorant equals the envelope and decides no order;
    # every grid point holds, but the grid misses 0 and all of [-1, 1] between
    seq = Custom(rule=lambda n: F(2 ** n, factorial(n)))
    B = BangFunction(seq, p=2, max_order=6, cfg=ScalarConfig(bits=128))
    verdict = bang_envelope_check(B, 6, [F(2 * i, 99) - 1 for i in range(100)])
    assert verdict.outcome == "inconclusive" and verdict.provenance is None
    assert str(verdict.trend) == "n=0, 1, 2, 3, 4, 5, 6: the envelope holds at the grid points only"


def test_an_envelope_fails_after_a_grid_only_order_stays_a_fails(monkeypatch):
    B = BangFunction(IteratedLog(2), p=2, max_order=6)
    majorant, envelope = bang_module._bang_majorant, bang_module._envelope_bound
    monkeypatch.setattr(
        bang_module, "_bang_majorant",
        lambda B, n, bits: Interval.point(F(10) ** 30) if n == 3 else majorant(B, n, bits),
    )
    monkeypatch.setattr(
        bang_module, "_envelope_bound",
        lambda B, n, bits: envelope(B, n, bits) * (F(1, 1000) if n == 5 else 1),
    )
    verdict = bang_envelope_check(B, 6, [F(i, 2) for i in range(-2, 3)])
    assert verdict.outcome == "fails" and verdict.witness.index == 5


def test_envelope_fails_name_the_first_grid_point(monkeypatch):
    real = bang_module._envelope_bound
    monkeypatch.setattr(
        bang_module, "_envelope_bound", lambda B, n, bits: real(B, n, bits) * F(1, 1000)
    )
    B = BangFunction(IteratedLog(2), p=2, max_order=6)
    verdict = bang_envelope_check(B, 6, [F(i, 5) for i in range(-5, 6)])
    assert verdict.outcome == "fails"
    assert str(verdict.witness) == "n=0: xi=-1"


def test_envelope_check_validates_the_grid():
    B = BangFunction(IteratedLog(2), p=2, max_order=6)
    with pytest.raises(ValueError):
        bang_envelope_check(B, 2, [F(0), F(3, 2)])
    cp = BangFunction(IteratedLog(2), p=3, max_order=6)
    assert bang_envelope_check(cp, 6, [F(0)]).ok
    with pytest.raises(ValueError):
        bang_envelope_check(cp, 2, [F(1, 2)])


def test_theorem1_bound_values():
    g = Gevrey(1)
    # n=1: 1 * 2e * (eA)^p * M'_p
    mpmath.mp.prec = 200
    enc = theorem1_bound(g, 1, 2, 1, IVAL).interval()
    want = 2 * mpmath.e * mpmath.e ** 2 * (factorial(2) * 2)
    assert _contains_mpf(enc, want)
    # p=2, n=2, A=1: 2 (2e)^2 e^4 M'_4 / 4
    enc2 = theorem1_bound(g, 1, 2, 2, IVAL).interval()
    want2 = 2 * (2 * mpmath.e) ** 2 * mpmath.e ** 4 * (factorial(4) * factorial(4)) / 4
    assert _contains_mpf(enc2, want2)
    # monotone in A
    lo_A = theorem1_bound(g, F(1, 2), 2, 2, IVAL).interval()
    hi_A = theorem1_bound(g, F(2), 2, 2, IVAL).interval()
    assert lo_A.hi < hi_A.lo


# -- class norm -----------------------------------------------------------------------


def test_class_norm_constant_model():
    model = PolynomialModel([F(1)])
    out = class_norm(model, Gevrey(0), (F(0), F(1)), F(1), 4, 5, IVAL).interval()
    assert out.contains(1) and out.width < F(1, 2 ** 100)


def test_class_norm_exp_model():
    # exp on [0, 1] with unit weights and r = 1: sup at n = 0, x = 1 is e
    model = CpModel(1)
    out = class_norm(model, Gevrey(0), (F(0), F(1)), F(1), 6, 11, IVAL).interval()
    e = iv_e(128)
    assert out.overlaps(e)
    assert out.hi <= e.hi * F(101, 100)


def test_class_norm_cp_model_beyond_unit_interval():
    # cp(2) = cosh on [0, 3], unit weights, r = 1: the sup is cosh(3) at n = 0
    mpmath.mp.prec = 1024
    for bits in (16, 128):
        cfg = ScalarConfig(mode="interval", bits=bits)
        out = class_norm(CpModel(2), Gevrey(0), (F(0), F(3)), F(1), 2, 4, cfg).interval()
        assert _contains_mpf(out, mpmath.cosh(3))


def test_class_norm_bang_model_bounded_by_two():
    seq = IteratedLog(2)
    B = BangFunction(seq, p=2, max_order=8)
    out = class_norm(BangModel(B), seq, (F(-1), F(1)), F(2), 8, 9, IVAL).interval()
    assert out.hi <= 2
    assert out.lo > 0


def test_class_norm_refuses_bad_orders_and_grids():
    for n_max, grid in ((-1, 5), (2, 1)):
        with pytest.raises(ValueError):
            class_norm(CpModel(1), Gevrey(0), (F(0), F(1)), F(1), n_max, grid, IVAL)


def test_class_norm_monotonicity_laws():
    model = CpModel(1)
    seq = Gevrey(0)
    small_r = class_norm(model, seq, (F(0), F(1)), F(1, 2), 4, 5, IVAL).interval()
    big_r = class_norm(model, seq, (F(0), F(1)), F(2), 4, 5, IVAL).interval()
    assert big_r.lo <= small_r.hi  # nonincreasing in r
    narrow = class_norm(model, seq, (F(0), F(1, 2)), F(1), 4, 5, IVAL).interval()
    wide = class_norm(model, seq, (F(0), F(1)), F(1), 4, 9, IVAL).interval()
    assert wide.hi >= narrow.lo  # nondecreasing under window enlargement


def test_power_composite_model_matches_expansion():
    # h(x) = (x^2 + 1)^2 via composite model equals the direct polynomial
    base = PolynomialModel([F(1), F(2), F(1)])  # (1 + t)^2 with t = x^2
    comp = PowerCompositeModel(base, 2)
    direct = PolynomialModel([F(1), F(0), F(2), F(0), F(1)])
    for n in range(5):
        for x in (F(0), F(1, 2), F(-2, 3)):
            a = comp.derivative_enclosure(n, x, 128)
            b = direct.derivative_enclosure(n, x, 128)
            assert a.lo == b.lo and a.hi == b.hi


# -- the exact integer term sum against the Interval reference ------------------------


def _reference_coef(B, n, k, bits):
    """M'_k (2 m_k)**(n-k) in Fraction-endpoint Interval arithmetic."""
    powed = B._twice_ratio(k, bits).pow_int(n - k).outward(bits + 8)
    return (B._mprime(k, bits) * powed).outward(bits + 8)


def _reference_bang_sum(B, n, xi, bits):
    """The term sum in Fraction-endpoint Interval arithmetic, term by term."""
    total = Interval.point(0)
    for k in range(B.K + 1):
        if B.variant == "cp" and n % B.p != 0:
            continue
        two_m = B._twice_ratio(k, bits)
        coef = _reference_coef(B, n, k, bits)
        if B.variant == "cp":
            total = total + coef
        elif xi == 0:
            osc = (1, 0, -1, 0)[n % 4]
            if osc:
                total = total + coef * osc
        else:
            c, s = iv_cos(two_m * xi, bits), iv_sin(two_m * xi, bits)
            total = total + coef * (c, -s, -c, s)[n % 4]
    return total


def test_bang_sum_endpoints_equal_the_interval_reference():
    # a 2**-20 tail keeps K near 27, so the reference stays fast
    tau = F(1, 2 ** 20)
    cos_B = BangFunction(IteratedLog(2), p=2, max_order=5, tail_target=tau)
    gev_B = BangFunction(Gevrey(F(1, 2)), p=2, max_order=5, tail_target=tau)
    cp_B = BangFunction(IteratedLog(2), p=3, max_order=6, tail_target=tau)
    cp4_B = BangFunction(IteratedLog(2), p=4, max_order=8, tail_target=tau)
    xis = (F(0), F(-1), F(-1, 3), F(1, 2), F(1))
    cases = [(B, n, xi) for B in (cos_B, gev_B) for n in range(6) for xi in xis]
    cases += [(cp_B, n, F(0)) for n in (0, 2, 3, 6)]
    cases += [(cp4_B, n, F(0)) for n in (0, 3, 4, 8)]
    for bits in (128, 256):
        for B, n, xi in cases:
            got = _bang_sum(B, n, xi, bits)
            ref = _reference_bang_sum(B, n, xi, bits)
            assert (got.lo, got.hi) == (ref.lo, ref.hi), (B.variant, n, xi, bits)


@pytest.mark.parametrize(
    "family",
    [lambda: IteratedLog(1), lambda: IteratedLog(2), lambda: Gevrey(F(1, 2)), Analytic],
    ids=["iterlog1", "iterlog2", "gevrey1/2", "analytic"],
)
def test_every_coefficient_has_a_positive_lower_end(family):
    # _bang_sum and _bang_majorant take the coefficients' signs as known
    B = BangFunction(family(), p=2, max_order=8)
    for bits in (128, 256):
        for n in range(9):
            for k in range(B.K + 1):
                lo, hi, _ = _bang_coef(B, n, k, bits)
                assert 0 < lo <= hi, (B.seq.describe(), n, k, bits)


def test_bang_majorant_equals_the_interval_sum_of_coefficient_sizes():
    tau = F(1, 2 ** 20)
    for B in (
        BangFunction(IteratedLog(2), p=2, max_order=6, tail_target=tau),
        BangFunction(Gevrey(F(1, 2)), p=3, max_order=6, tail_target=tau),
    ):
        for bits in (128, 256):
            for n in range(B.max_order + 1):
                want = Interval.point(0)
                for k in range(B.K + 1):
                    want = want + abs(_reference_coef(B, n, k, bits))
                want = want + B._mprime(n, bits) * B.relative_tail(n)
                got = _bang_majorant(B, n, bits)
                assert (got.lo, got.hi) == (want.lo, want.hi), (B.describe(), n, bits)


def test_dyadic_form_refuses_non_dyadic_endpoints():
    assert _dyadic(Interval(F(-3, 4), F(5))) == (-3, 20, -2)
    with pytest.raises(ValueError):
        _dyadic(Interval(F(1, 3), F(1)))


def _cp_series_reference(p, n, x, bits):
    """The term-by-term Fraction sum that the integer kernel replaced."""
    target = F(1, 2 ** (bits + 8))
    X = max(F(1), abs(x))
    total = F(0)
    j = -(-n // p)
    while True:
        m = j * p - n
        total += x ** m / factorial(m) if m else F(1)
        j += 1
        m = j * p - n
        tail = 2 * X ** m / factorial(m)
        if tail <= target and m + 1 >= 2 * X:
            break
    if x >= 0 or (p % 2 == 0 and n % 2 == 0):
        return total, total + tail
    if p % 2 == 0:
        return total - tail, total
    return total - tail, total + tail


def test_cp_series_interval_equals_the_fraction_loop():
    rng = random.Random(17)
    xs = [F(0), F(-1), F(1), F(-1, 3), F(5, 7), F(-7, 2), F(9, 4), F(3), F(-5)]
    for _ in range(300):
        p, n = rng.randint(1, 6), rng.randint(0, 25)
        bits = rng.choice((16, 32, 64, 128, 256))
        x = rng.choice(xs + [F(rng.randint(-40, 40), rng.randint(1, 9))])
        enc = _cp_series_interval(p, n, x, bits)
        assert (enc.lo, enc.hi) == _cp_series_reference(p, n, x, bits), (p, n, x, bits)


# -- one memo table per sequence ---------------------------------------------------


def _series_results(build):
    """Enclosures, majorants and lower-bound verdicts of four series, each
    made by ``build(p, max_order, tail_target)``, in one fixed order."""
    tau = F(1, 2 ** 20)
    out = []
    for p in (2, 3):
        for max_order in (6, 9):
            B = build(p, max_order, tau)
            xis = (F(0), F(1, 3)) if p == 2 else (F(0),)
            for n in range(max_order + 1):
                for xi in xis:
                    enc = bang_derivative(B, n, xi, IVAL).interval()
                    out.append((p, max_order, n, xi, enc.lo, enc.hi))
                maj = _bang_majorant(B, n, 128)
                out.append((p, max_order, n, maj.lo, maj.hi))
            for n in range(max_order // p + 1):
                out.append((p, max_order, n, bang_lower_bound_certify(B, n, IVAL)))
    return out


def test_series_on_one_sequence_share_its_tables_and_their_values():
    seq = IteratedLog(2)
    fresh = []

    def on_one_sequence(p, max_order, tau):
        return BangFunction(seq, p=p, max_order=max_order, tail_target=tau)

    def on_fresh_sequences(p, max_order, tau):
        fresh.append(IteratedLog(2))
        return BangFunction(fresh[-1], p=p, max_order=max_order, tail_target=tau)

    assert _series_results(on_one_sequence) == _series_results(on_fresh_sequences)
    # every series keeps its entries in its sequence's memo: the one shared
    # memo holds the keys that the four separate ones hold together
    assert set(seq.memo) == set().union(*(s.memo for s in fresh))
    # the trig values at xi = 1/3 went to the one shared memo
    assert any(key[0] == "trig" for key in seq.memo)


def _counting_gate(monkeypatch):
    calls = []
    orig = bang_module.is_log_convex

    def counted(seq, window, which, cfg):
        calls.append(window)
        return orig(seq, window, which, cfg)

    monkeypatch.setattr(bang_module, "is_log_convex", counted)
    return calls


def test_the_gate_runs_once_per_sequence_window_and_cfg(monkeypatch):
    calls = _counting_gate(monkeypatch)
    seq = IteratedLog(2)
    cfg = ScalarConfig(bits=128, max_doublings=8)
    BangFunction(seq, p=2, max_order=8, K=30, cfg=cfg)
    assert calls == [(1, 30)]
    # a smaller K decides a prefix of the certified comparisons: no gate
    for K in (30, 12, 1, 0, 25):
        BangFunction(seq, p=2, max_order=0, K=K, cfg=cfg)
    assert calls == [(1, 30)]
    # a larger K, another cfg or another sequence object reruns it
    BangFunction(seq, p=2, max_order=8, K=31, cfg=cfg)
    BangFunction(seq, p=2, max_order=8, K=20, cfg=IVAL)
    BangFunction(IteratedLog(2), p=2, max_order=8, K=20, cfg=cfg)
    assert calls == [(1, 30), (1, 31), (1, 20), (1, 20)]
    BangFunction(seq, p=2, max_order=8, K=31, cfg=cfg)
    assert len(calls) == 4


def test_a_failing_gate_is_never_recorded(monkeypatch):
    from carleman.bang import GateError

    calls = _counting_gate(monkeypatch)
    # log-convex up to index 5; M'_6 breaks the ratio order
    seq = Custom(table=[1, 1, 1, 1, 1, 1, F(1, 10 ** 6), 1, 1, 1])
    BangFunction(seq, p=2, max_order=2, K=4)
    for _ in range(2):
        with pytest.raises(GateError):
            BangFunction(seq, p=2, max_order=2, K=8)
    BangFunction(seq, p=2, max_order=2, K=4)
    assert calls == [(1, 4), (1, 8), (1, 8)]


@pytest.mark.parametrize("k", [1, 2])
def test_bang_coef_equals_the_rounded_interval_product(k):
    B = BangFunction(IteratedLog(k), p=2, max_order=8, K=40)
    for bits in (128, 256, 512):
        for n in (0, 1, 5, 8):
            for kk in range(B.K + 1):
                two_m = B._twice_ratio(kk, bits)
                powed = outward_pow_product(two_m, n - kk, Interval.point(1), 0, bits + 8)
                want = _dyadic((B._mprime(kk, bits) * powed).outward(bits + 8))
                assert _bang_coef(B, n, kk, bits) == want, (n, kk, bits)


def test_bang_coef_refuses_a_nonpositive_weight_enclosure():
    B = BangFunction(IteratedLog(1), p=2, max_order=2, K=6)
    B.seq.memo["mp", 3, 64] = Interval(F(0), F(5))
    with pytest.raises(SequenceError):
        _bang_coef(B, 2, 3, 64)


class _ZeroAt(WeightSequence):
    """IteratedLog(2) read through its enclosures, except that M_1 is
    enclosed by the point 0 at ``bad_bits``: a fault of the sequence,
    which no precision mends."""

    def __init__(self, bad_bits):
        super().__init__()
        self.base, self.bad_bits = IteratedLog(2), bad_bits

    def _root(self, n):
        return None

    def _enclosure(self, n, bits):
        if n == 1 and bits == self.bad_bits:
            return Interval.point(0)
        return self.base.enclosure(n, bits)


def test_twice_ratio_refuses_a_nonpositive_enclosure():
    B = BangFunction(_ZeroAt(96), p=2, max_order=2, K=6)
    assert B._twice_ratio(0, 128).strictly_positive()
    with pytest.raises(SequenceError, match="m_0 .* not positive"):
        B._twice_ratio(0, 96)
    # the one ladder of a caller meets it as it is, not as a precision shortfall
    with pytest.raises(SequenceError):
        bang_derivative(B, 2, 0, ScalarConfig(bits=96))
