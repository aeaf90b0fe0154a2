"""Interval/scalar arithmetic: exactness, soundness, directed rounding."""

import math
import random
import sys
from fractions import Fraction

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import given, settings
from mpmath import libmp

from carleman import scalar
from carleman.scalar import (
    _ROUND_ONCE_GUARD,
    _int_str,
    ExactUnavailableError,
    Interval,
    RangeError,
    Scalar,
    ScalarConfig,
    _fraction_from_mpf_tuple,
    _int_fraction,
    _reduced_fraction,
    _rounded_tuple,
    decimal_str,
    exact_nth_root,
    int_nth_root_floor,
    iv_cos,
    iv_cos_sin,
    iv_e,
    iv_exp,
    iv_log,
    iv_log_chain,
    iv_pi,
    iv_pow,
    iv_sin,
    iv_sqrt,
    make_scalar,
    outward_pow_product,
    refine,
    refine_le,
    refine_sign,
)

F = Fraction


def test_interval_orders_endpoints():
    with pytest.raises(ValueError):
        Interval(F(2), F(1))


def test_public_constructor_checks_external_endpoints():
    with pytest.raises(ValueError, match="out of order"):
        Interval(F(1, 3), F(1, 4))
    with pytest.raises(ValueError, match="out of order"):
        Interval(1, 0)
    for bad in ((0.5, F(1)), (F(0), 1.0), (0.25, 0.5)):
        with pytest.raises(TypeError):
            Interval(*bad)
    iv = Interval(1, 2)
    assert type(iv.lo) is F and type(iv.hi) is F
    with pytest.raises(TypeError):
        Interval.point(0.5)
    with pytest.raises(TypeError):
        Interval(F(1), F(2)).pow_int(2.0)


def test_interval_is_frozen_slotted_and_hashes_by_value():
    import dataclasses

    iv = Interval(F(1, 3), F(1, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        iv.lo = F(0)
    with pytest.raises((AttributeError, TypeError)):
        iv.extra = 1
    assert not hasattr(iv, "__dict__")
    # an op result (built unchecked) equals and hashes like a checked one
    built = Interval.point(F(1, 3)) + Interval(F(0), F(1, 6))
    assert built == iv and hash(built) == hash(iv)
    assert len({iv, built, Interval(F(2, 6), F(3, 6))}) == 1
    assert iv != Interval(F(1, 3), F(1))


def test_interval_ring_ops_are_exact():
    a = Interval(F(1, 3), F(1, 2))
    b = Interval(F(-2), F(5))
    s = a + b
    assert s.lo == F(1, 3) - 2 and s.hi == F(1, 2) + 5
    p = a * b
    assert p.lo == F(1, 2) * -2 and p.hi == F(1, 2) * 5
    d = a / Interval.point(F(2))
    assert d.lo == F(1, 6) and d.hi == F(1, 4)


def test_interval_division_by_zero_interval():
    with pytest.raises(ZeroDivisionError):
        Interval(F(-1), F(1)).reciprocal()


@pytest.mark.parametrize(
    "iv,e,expected",
    [
        (Interval(F(-2), F(3)), 2, Interval(F(0), F(9))),
        (Interval(F(-2), F(3)), 3, Interval(F(-8), F(27))),
        (Interval(F(-3), F(-2)), 2, Interval(F(4), F(9))),
        (Interval(F(2), F(3)), -1, Interval(F(1, 3), F(1, 2))),
        (Interval(F(5), F(7)), 0, Interval(F(1), F(1))),
    ],
)
def test_pow_int_cases(iv, e, expected):
    assert iv.pow_int(e) == expected


def test_abs_cases():
    assert abs(Interval(F(-3), F(2))) == Interval(F(0), F(3))
    assert abs(Interval(F(-3), F(-1))) == Interval(F(1), F(3))


def _frac(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    v = F(int(man)) * F(2) ** exp
    return -v if sign else v


def test_transcendental_enclosures_contain_reference():
    mpmath.mp.prec = 400
    e = iv_e(256)
    assert e.lo < _frac(+mpmath.e) < e.hi
    assert e.width < F(1, 2 ** 250)
    pi = iv_pi(256)
    assert pi.lo < _frac(+mpmath.pi) < pi.hi
    lg = iv_log(Interval.point(2), 128)
    assert lg.lo < _frac(mpmath.log(2)) < lg.hi
    c = iv_cos(Interval.point(F(1, 2)), 128)
    assert c.lo < _frac(mpmath.cos(mpmath.mpf(1) / 2)) < c.hi
    s = iv_sin(Interval.point(F(1, 2)), 128)
    assert s.lo < _frac(mpmath.sin(mpmath.mpf(1) / 2)) < s.hi


def test_iv_pow_integer_exponent_stays_exact():
    out = iv_pow(Interval.point(F(3, 2)), F(4), 64)
    assert out.is_point() and out.lo == F(81, 16)


def test_iv_pow_rational_exponent_encloses_root():
    out = iv_pow(Interval.point(2), F(1, 2), 128)
    mid = out.midpoint
    assert abs(mid * mid - 2) < F(1, 2 ** 100)
    assert not out.is_point()


def test_iv_pow_rejects_nonpositive_base_for_roots():
    with pytest.raises(ValueError):
        iv_pow(Interval(F(-1), F(1)), F(1, 2), 64)


def test_outward_rounding_encloses():
    x = Interval.point(F(1, 3))
    r = x.outward(64)
    assert r.lo < F(1, 3) < r.hi
    assert r.width < F(1, 2 ** 60)
    # dyadic points are preserved exactly
    y = Interval.point(F(3, 4)).outward(64)
    assert y.is_point() and y.lo == F(3, 4)


def test_refine_sign_and_comparisons():
    cfg = ScalarConfig(bits=64, max_doublings=4)
    # sign of e - 2.718281828459045 resolves with refinement
    target = F(2718281828459045, 10 ** 15)
    sign = refine_sign(lambda bits: iv_e(bits) - target, cfg)
    assert sign == 1
    assert refine_sign(lambda b: Interval.point(1) - iv_e(b), cfg) == -1
    assert refine_sign(lambda b: iv_e(b) - Interval.point(3), cfg) == -1
    assert refine_sign(lambda b: iv_e(b) - Interval.point(2), cfg) == 1
    assert refine_sign(lambda b: Interval.point(F(1, 3)) - F(1, 3), cfg) == 0
    # identical transcendental quantities never resolve: None at the cap
    assert refine_sign(lambda b: iv_e(b) - iv_e(b), cfg) is None


def test_refine_doubles_until_decided_or_capped():
    for d in (0, 3):
        seen = []
        assert refine(lambda bits: seen.append(bits), ScalarConfig(bits=64, max_doublings=d)) is None
        assert seen == [64 * 2 ** i for i in range(d + 1)]
    # the first result that is not None wins, falsy ones included
    seen = []
    assert refine(lambda bits: seen.append(bits) or (False if bits == 256 else None),
                  ScalarConfig(bits=64, max_doublings=5)) is False
    assert seen == [64, 128, 256]


def test_refine_le_is_non_strict_and_certifies_both_ways():
    cfg = ScalarConfig(bits=64, max_doublings=3)
    one, two = Interval.point(1), Interval(F(1), F(2))
    # touching endpoints: lhs.hi == rhs.lo is a certified <=
    assert refine_le(lambda b: two, lambda b: Interval(F(2), F(3)), cfg) is True
    assert refine_le(lambda b: one, lambda b: one, cfg) is True
    assert refine_le(lambda b: Interval(F(3), F(4)), lambda b: two, cfg) is False
    assert refine_le(lambda b: iv_e(b), lambda b: Interval.point(3), cfg) is True
    assert refine_le(lambda b: iv_e(b), lambda b: Interval.point(F(27, 10)), cfg) is False


def test_refine_le_decides_once_the_enclosures_narrow():
    # 1 +- 2**-(bits/32) against 9/8: overlapping at 64 bits, apart at 128
    seen = []

    def lhs(bits):
        seen.append(bits)
        return Interval.point(1).widen(F(1, 2 ** (bits // 32)))

    assert refine_le(lhs, lambda b: Interval.point(F(9, 8)), ScalarConfig(bits=64)) is True
    assert seen == [64, 128]


def test_refine_le_stays_none_after_every_rung():
    calls = []

    def lhs(bits):
        calls.append(bits)
        return iv_e(bits)

    for d in (0, 2, 5):
        calls.clear()
        assert refine_le(lhs, iv_e, ScalarConfig(bits=64, max_doublings=d)) is None
        assert len(calls) == d + 1


def test_scalar_modes():
    cfg_i = ScalarConfig(mode="interval", bits=64)
    s = make_scalar(cfg_i, F(1, 3))
    assert s.mode == "interval" and s.lo < F(1, 3) < s.hi
    cfg_e = ScalarConfig(mode="exact")
    assert make_scalar(cfg_e, F(2, 4)).fraction() == F(1, 2)
    with pytest.raises(ExactUnavailableError):
        make_scalar(cfg_e, None, lambda bits: iv_e(bits))
    cfg_f = ScalarConfig(mode="float", bits=64)
    fs = make_scalar(cfg_f, None, lambda bits: iv_e(bits))
    assert abs(float(fs) - 2.718281828459045) < 1e-12


def test_float_mode_range_error():
    cfg = ScalarConfig(mode="float", bits=64)
    with pytest.raises(RangeError):
        make_scalar(cfg, F(2) ** scalar.FLOAT_EXP_CAP)
    with pytest.raises(RangeError):
        make_scalar(cfg, F(1, 2 ** (scalar.FLOAT_EXP_CAP + 2)))
    # within the cap is fine
    assert float(make_scalar(cfg, F(2) ** 100)) == 2.0 ** 100


def test_scalar_interval_accessor():
    s = Scalar.from_fraction(F(5, 7))
    assert s.interval().is_point()
    f = Scalar.from_float(1.5)
    with pytest.raises(ExactUnavailableError):
        f.interval()


def test_int_roots():
    assert int_nth_root_floor(63, 3) == 3
    assert int_nth_root_floor(64, 3) == 4
    assert int_nth_root_floor(10 ** 18, 2) == 10 ** 9
    assert exact_nth_root(F(64, 729), 3) == F(4, 9)
    assert exact_nth_root(F(2), 2) is None


def test_decimal_str_directed():
    assert decimal_str(F(1, 3), 4, "down") == "0.3333"
    assert decimal_str(F(1, 3), 4, "up") == "0.3334"
    assert decimal_str(F(-1, 3), 4, "down") == "-0.3334"
    assert decimal_str(F(-1, 3), 4, "up") == "-0.3333"
    assert decimal_str(F(5, 2), 1, "down") == "2.5"
    assert decimal_str(F(2), 0, "up") == "2"
    with pytest.raises(ValueError):
        decimal_str(F(1, 3), -1, "down")


def test_int_str_equals_str_past_the_digit_limit():
    rng = random.Random(5)
    ints = [0, 1, -1, 10 ** 639, 2 ** 1919, 2 ** 1920, -(10 ** 5000), 10 ** 20000 - 1]
    ints += [rng.getrandbits(rng.randint(1, 60000)) * rng.choice((1, -1)) for _ in range(60)]
    got = [_int_str(n) for n in ints]
    wide = decimal_str(F(10 ** 5000 + 1, 3), 5000, "up")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert got == [str(n) for n in ints]
        assert wide == f"{(10 ** 5000 + 1) // 3}.{'6' * 4999}7"
    finally:
        sys.set_int_max_str_digits(limit)


def test_iv_cos_sin_is_the_pair_of_iv_cos_and_iv_sin():
    rng = random.Random(11)
    args = [F(0), F(1, 3), Interval.point(0), Interval(F(-7), F(7))]
    for _ in range(60):
        lo = F(rng.randint(-4000, 4000), rng.randint(1, 500))
        args.append(Interval(lo, lo + F(rng.randint(0, 3000), rng.randint(1, 500))))
    for x in args:
        for bits in (64, 128, 256):
            assert iv_cos_sin(x, bits) == (iv_cos(x, bits), iv_sin(x, bits))


def test_directed_rounding_matches_mpmath():
    rng = random.Random(3)
    values = [F(0), F(1), F(-1), F(1, 3), F(2 ** 300 - 1), F(-(2 ** 300 - 1), 7)]
    # one bit too many, odd: the dropped last bit decides the rounding
    values += [
        s * F(2 ** b + 1, 2 ** e) for b in (8, 53, 137, 264) for s in (1, -1) for e in (0, 9)
    ]
    for _ in range(400):
        sign = rng.choice((1, -1))
        values += [
            sign * F(rng.getrandbits(900) + 1, rng.getrandbits(rng.randint(1, 900)) + 1),
            # integers and dyadics with long runs of trailing zero bits
            sign * F(rng.getrandbits(400) << rng.randint(0, 1500), 1 << rng.randint(0, 1500)),
            sign * F((1 << rng.randint(1, 300)) + rng.choice((-1, 1)), 3 ** rng.randint(0, 40)),
        ]
    # dyadics read off their bits: odd parts of bits - 1, bits and bits + 1
    # bits, integers with long runs of trailing zero bits, negatives
    for bits in (8, 53, 137, 264):
        for size in (bits - 1, bits, bits + 1):
            odd = (1 << (size - 1)) | rng.getrandbits(size - 1) | 1
            for s in (1, -1):
                values += [s * F(odd, 1 << rng.randint(1, 300)), s * F(odd << rng.randint(0, 700))]
    for q in values:
        for bits in (8, 53, 137, 264):
            for rnd in ("f", "c", "n"):
                want = libmp.from_rational(q.numerator, q.denominator, bits, rnd)
                assert _rounded_tuple(q, bits, rnd) == want, (q, bits, rnd)


def _spy(monkeypatch, owner, name):
    calls = []
    orig = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _random_positive_interval(rng):
    def endpoint():
        if rng.random() < 0.5:  # dyadic
            return F(rng.getrandbits(rng.randint(1, 200)) + 1, 1 << rng.randint(0, 200))
        num, den = (rng.getrandbits(rng.randint(1, 200)) + 1 for _ in range(2))
        return F(num, den)

    lo = endpoint()
    if rng.random() < 0.25:
        return Interval.point(lo)
    return Interval(lo, lo + endpoint())


def test_outward_pow_product_equals_the_exact_expression(monkeypatch):
    fallbacks = _spy(monkeypatch, scalar, "_round_exact")
    rng = random.Random(17)
    exponents = [0, 1, -1, 2, -2, -40, 80]
    for bits in (64, 128, 512):
        for i in range(150):
            a, b = _random_positive_interval(rng), _random_positive_interval(rng)
            if i < len(exponents) ** 2:
                p, q = exponents[i % 7], exponents[i // 7]
            else:
                p, q = rng.randint(-40, 80), rng.randint(-40, 80)
            got = outward_pow_product(a, p, b, q, bits)
            want = (a.pow_int(p) * b.pow_int(q)).outward(bits)
            assert (got.lo, got.hi) == (want.lo, want.hi), (a, p, b, q, bits)
            assert type(got.lo) is F and type(got.hi) is F
    assert not fallbacks  # the directed bounds decided every rounding


@pytest.mark.parametrize("bits", [64, 128, 512])
def test_outward_pow_product_falls_back_on_a_straddle(monkeypatch, bits):
    # 1 -+ eps lie within 2**-(bits + guard) of the bits-bit dyadic 1, so the
    # directed bounds round to different dyadics on each side
    eps = F(1, 2 ** (bits + _ROUND_ONCE_GUARD + 64))
    calls = _spy(monkeypatch, scalar, "_round_exact")
    for a, p, b, q in (
        (Interval(1 - eps, 1 + eps), 1, Interval.point(1), 1),
        (Interval.point(3), 2, Interval(1 - eps, 1 + eps), -1),
        (Interval(1 - eps, 1 + eps), 5, Interval.point(F(1, 3)), 0),
    ):
        calls.clear()
        got = outward_pow_product(a, p, b, q, bits)
        want = (a.pow_int(p) * b.pow_int(q)).outward(bits)
        assert (got.lo, got.hi) == (want.lo, want.hi)
        assert [rnd for *_, rnd in calls] == ["f", "c"]


def test_outward_pow_product_non_positive_inputs_take_the_exact_path(monkeypatch):
    calls = _spy(monkeypatch, Interval, "pow_int")
    cases = [
        (Interval(F(0), F(3, 2)), 3, Interval(F(1, 3), F(2)), -2),
        (Interval(F(-5, 7), F(3, 2)), 2, Interval.point(F(1, 3)), 3),
        (Interval(F(-2), F(-1, 3)), 3, Interval(F(1), F(2)), 1),
        (Interval(F(1, 2), F(3)), -3, Interval(F(-1), F(0)), 4),
    ]
    for a, p, b, q in cases:
        calls.clear()
        got = outward_pow_product(a, p, b, q, 128)
        assert calls[0] == (a, p) and (b, q) in calls
        want = (a.pow_int(p) * b.pow_int(q)).outward(128)
        assert (got.lo, got.hi) == (want.lo, want.hi)
    with pytest.raises(ZeroDivisionError):
        outward_pow_product(Interval(F(0), F(1)), -1, Interval.point(1), 1, 64)


def test_outward_pow_product_memo_of_b_gives_the_same_roundings(monkeypatch):
    terms = _spy(monkeypatch, scalar, "_directed_term")
    rng = random.Random(29)
    b_counts = set()
    for q in (-40, -1, 3):
        b = _random_positive_interval(rng)
        memo = {}
        for bits in (64, 64, 128, 512):
            for _ in range(6):
                a, p = _random_positive_interval(rng), rng.randint(-40, 80)
                terms.clear()
                got = outward_pow_product(a, p, b, q, bits, memo)
                b_counts.add(sum(v is b.lo or v is b.hi for v, *_ in terms))
                want = outward_pow_product(a, p, b, q, bits)
                assert (got.lo, got.hi) == (want.lo, want.hi)
        # keyed by the working precision alone: ints, not the endpoints
        assert memo and all(type(k) is int for k in memo)
    # b's four terms are made at the first call at a working precision and
    # read from the memo at every later one
    assert b_counts == {0, 4}


def test_reduced_fraction_builder_equals_the_fraction_constructor():
    rng = random.Random(5)
    pairs = [(0, 1), (1, 1), (-1, 1), (3, 4), (-(2 ** 521 - 1), 1 << 600), (1 << 900, 1)]
    for _ in range(300):
        n, d = rng.getrandbits(rng.randint(1, 700)) * rng.choice((1, -1)), rng.getrandbits(300) + 1
        g = math.gcd(n, d)
        pairs.append((n // g, d // g))
    for n, d in pairs:
        got, want = _reduced_fraction(n, d), F(n, d)
        assert got == want and hash(got) == hash(want) and type(got) is type(want) is F
        assert (got.numerator, got.denominator) == (n, d)
        assert type(got.numerator) is int and type(got.denominator) is int
        assert got + F(1, 3) == want + F(1, 3) and got * 7 == want * 7 and -got == -want
        assert (got < F(1, 2)) == (want < F(1, 2)) and repr(got) == repr(want)
        assert {got: 1}[want] == 1


def test_int_fraction_equals_the_fraction_constructor():
    rng = random.Random(6)
    pairs = [(0, 1), (0, 7), (6, 4), (-6, 4), (-(2 ** 521), 1 << 600), (4096, 4096), (1, 4096)]
    for _ in range(300):
        c = rng.getrandbits(rng.randint(1, 80)) + 1
        n = rng.getrandbits(rng.randint(1, 400)) * rng.choice((1, -1)) * c
        pairs.append((n, (rng.getrandbits(rng.randint(1, 300)) + 1) * c))
    for n, d in pairs:
        got, want = _int_fraction(n, d), F(n, d)
        assert got == want and hash(got) == hash(want) and type(got) is type(want) is F
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert repr(got) == repr(want) and {got: 1}[want] == 1


def test_mpf_tuples_become_reduced_fractions():
    rng = random.Random(8)
    for _ in range(300):
        v = F(rng.getrandbits(200) * rng.choice((1, -1)), rng.getrandbits(200) + 1)
        t = libmp.from_rational(v.numerator, v.denominator, rng.randint(8, 300), "n")
        got = _fraction_from_mpf_tuple(t)
        assert got == _frac_of_tuple(t) and hash(got) == hash(_frac_of_tuple(t))
    with pytest.raises(RangeError):
        _fraction_from_mpf_tuple(libmp.finf)


def _frac_of_tuple(t) -> Fraction:
    sign, man, exp, _ = t
    v = F(int(man)) * F(2) ** exp
    return -v if sign else v


# -- the transcendentals against mpmath's interval-object path ----------------------


def _ctx_path(name: str, x, bits: int):
    """iv_<name>(x, bits) through an mpmath interval context and its ivmpf
    objects: the endpoints rounded outward at bits + 16, the context's
    function, and a domain error as ValueError."""
    ctx = mpmath.ctx_iv.MPIntervalContext()
    ctx.prec = bits + 16
    iv = x if isinstance(x, Interval) else Interval.point(x)
    arg = ctx.make_mpf(tuple(
        libmp.from_rational(q.numerator, q.denominator, ctx.prec, rnd)
        for q, rnd in ((iv.lo, "f"), (iv.hi, "c"))
    ))
    try:
        ends = getattr(ctx, name)(arg)._mpi_
    except libmp.ComplexResult:
        return f"{name} outside the real domain: {iv}"
    if any(t[1] == 0 and t[2] for t in ends):  # an infinite endpoint
        return f"{name} outside the real domain: {iv}"
    return Interval(*map(_frac_of_tuple, ends))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


_UNARY = {"exp": iv_exp, "log": iv_log, "cos": iv_cos, "sin": iv_sin, "sqrt": iv_sqrt}


@st.composite
def _transcendental_args(draw):
    def end():
        return draw(st.fractions(min_value=-3000, max_value=3000, max_denominator=10 ** 12))

    a, b = end(), end()
    if draw(st.booleans()):
        return min(a, b)  # a point, given as a rational
    return Interval(min(a, b), max(a, b))


@given(_transcendental_args(), st.sampled_from([8, 53, 128, 300]))
@settings(max_examples=80, deadline=None)
def test_each_transcendental_equals_the_interval_object_path(x, bits):
    for name, fn in _UNARY.items():
        assert _outcome(fn, x, bits) == _ctx_path(name, x, bits), (name, x, bits)
    assert iv_cos_sin(x, bits) == (_ctx_path("cos", x, bits), _ctx_path("sin", x, bits))


@pytest.mark.parametrize("bits", [8, 64, 256])
def test_transcendental_edge_cases_equal_the_interval_object_path(bits):
    args = [
        Interval(F(0), F(1)), Interval(F(-1), F(2)), Interval(F(-2), F(-1)), F(0),
        F(1), Interval(F(-5, 2), F(0)), F(-10 ** 6), Interval(F(10 ** 5), F(10 ** 5 + 1)),
    ]
    for x in args:
        for name, fn in _UNARY.items():
            assert _outcome(fn, x, bits) == _ctx_path(name, x, bits), (name, x, bits)
    ctx = mpmath.ctx_iv.MPIntervalContext()
    ctx.prec = bits + 16
    assert iv_e(bits) == Interval(*map(_frac_of_tuple, ctx.e._mpi_))
    assert iv_pi(bits) == Interval(*map(_frac_of_tuple, ctx.pi._mpi_))


def _nested_logs(x, k: int, bits: int):
    for _ in range(k):
        x = iv_log(x, bits)
    return x


def test_log_chain_equals_nested_logs():
    args = [F(0), F(1), F(2), F(3), F(16), F(-4), F(15), F(3814280), F(10 ** 40 + 7, 3),
            Interval(F(1, 2), F(9)), Interval(F(2), F(3)), Interval(F(3, 2), F(7, 4))]
    for x in args:
        for k in (1, 2, 3):
            for bits in (8, 64, 256):
                assert _outcome(iv_log_chain, x, k, bits) == _outcome(_nested_logs, x, k, bits)
