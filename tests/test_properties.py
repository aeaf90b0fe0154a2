"""Property-based checks of the certified arithmetic and transform laws."""

from fractions import Fraction

import hypothesis.strategies as st
import mpmath
from hypothesis import given, settings
from mpmath import libmp

from carleman.criteria import dc_partial_sum
from carleman.scalar import Interval, ScalarConfig, _rounded_ratio, decimal_str, iv_pow
from carleman import seqcore
from carleman.seqcore import (
    Custom,
    Gevrey,
    IteratedLog,
    PowerSub,
    SequenceError,
    _int_roots,
    _three_point_sign,
    global_family_rule,
    is_increasing,
    is_log_convex,
)
from carleman.spec import parse_sequence_spec
from carleman.transforms import Regularized, log_convex_regularization

F = Fraction
EXACT = ScalarConfig(mode="exact")


def fractions(max_num=1000, min_value=None):
    if min_value is None:
        min_value = F(-max_num)
    return st.fractions(
        min_value=min_value, max_value=F(max_num), max_denominator=max_num
    )


@st.composite
def intervals(draw):
    a = draw(fractions())
    b = draw(fractions())
    return Interval(min(a, b), max(a, b))


@st.composite
def positive_tables(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    vals = [F(1)] + [
        draw(fractions(max_num=512, min_value=F(1, 512)).filter(lambda q: q > 0))
        for _ in range(n)
    ]
    return vals


@given(intervals(), intervals(), fractions(), fractions())
@settings(max_examples=200)
def test_interval_ops_contain_pointwise_results(x, y, a, b):
    # clamp the sample points into the intervals
    pa = min(max(a, x.lo), x.hi)
    pb = min(max(b, y.lo), y.hi)
    assert (x + y).contains(pa + pb)
    assert (x - y).contains(pa - pb)
    assert (x * y).contains(pa * pb)
    if not y.contains(0):
        assert (x / y).contains(pa / pb)


@given(intervals(), st.integers(min_value=-4, max_value=6), fractions())
@settings(max_examples=200)
def test_interval_pow_containment(x, e, a):
    p = min(max(a, x.lo), x.hi)
    if e < 0 and x.contains(0):
        return
    if e < 0 and p == 0:
        return
    assert x.pow_int(e).contains(p ** e)


@given(fractions(max_num=10 ** 6), st.integers(min_value=16, max_value=128))
@settings(max_examples=200)
def test_outward_rounding_contains_and_stays_tight(q, bits):
    iv = Interval.point(q).outward(bits)
    assert iv.contains(q)
    if q != 0:
        assert iv.width <= abs(q) * F(4, 2 ** bits)


@given(fractions(max_num=10 ** 9), st.integers(min_value=1, max_value=12))
@settings(max_examples=200)
def test_decimal_str_directed_rounding(q, digits):
    lo = F(decimal_str(q, digits, "down"))
    hi = F(decimal_str(q, digits, "up"))
    assert lo <= q <= hi
    assert hi - lo <= F(1, 10 ** digits)


@given(positive_tables())
@settings(max_examples=60, deadline=None)
def test_regularization_minorant_and_log_convex(vals):
    seq = Custom(table=vals)
    n_max = len(vals) - 1
    reg = log_convex_regularization(seq, (0, n_max))
    for n in range(n_max + 1):
        q, d = reg.as_root(n)
        assert q <= seq.exact(n) ** d
    if n_max >= 3:
        assert is_log_convex(reg, (1, n_max - 1)).ok


@given(positive_tables(), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_powersub_window_values(vals, p):
    seq = Custom(table=vals)
    ps = PowerSub(seq, p)
    top = (len(vals) - 1) // p
    for n in range(top + 1):
        assert ps.exact(n) == seq.exact(p * n)


@given(positive_tables())
@settings(max_examples=40, deadline=None)
def test_powersub_preserves_increasing(vals):
    ordered = sorted(vals)
    ordered[0] = F(1)
    table = [max(v, F(1)) for v in ordered]
    seq = Custom(table=table)
    if not is_increasing(seq, (0, len(table) - 2)).ok:
        return
    ps = PowerSub(seq, 2)
    assert is_increasing(ps, (0, (len(table) - 1) // 2 - 1)).ok


@given(positive_tables())
@settings(max_examples=40, deadline=None)
def test_dc_partial_sum_nondecreasing(vals):
    seq = Custom(table=vals)
    prev = None
    for N in range(len(vals) - 1):
        cur = dc_partial_sum(seq, N, EXACT).fraction()
        if prev is not None:
            assert cur >= prev
        prev = cur


@st.composite
def sequence_specs(draw):
    """A gevrey or custom spec, inside zero to two power substitutions."""
    if draw(st.booleans()):
        spec = f"gevrey({draw(fractions(max_num=6, min_value=F(0)))})"
    else:
        spec = "custom(" + ",".join(str(v) for v in draw(positive_tables())) + ")"
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        spec = f"powersub({spec},{draw(st.integers(min_value=1, max_value=3))})"
    return spec


def _root_prefix(seq, hi):
    """The forms of M_0, ..., M_hi read through ``as_root``, up to the first
    index without one or outside the sequence."""
    forms = []
    for n in range(hi + 1):
        try:
            rep = seq.as_root(n)
        except SequenceError:
            break
        if rep is None:
            break
        forms.append(rep)
    return forms


def _assert_batch_is_the_root_prefix(seq, hi):
    batch = [(F(num, den), d) for num, den, d in _int_roots(seq, 0, hi)]
    assert batch == _root_prefix(seq, hi), (seq.describe(), hi)


@given(sequence_specs(), st.integers(min_value=2, max_value=14), st.data())
@settings(max_examples=40, deadline=None)
def test_every_batch_is_the_longest_prefix_of_root_forms(spec, hi, data):
    seq = parse_sequence_spec(spec)
    _assert_batch_is_the_root_prefix(seq, hi)
    top = len(_root_prefix(seq, hi)) - 1
    if top >= 2:
        reg = log_convex_regularization(seq, (0, top))
        _assert_batch_is_the_root_prefix(reg, top)
        _assert_batch_is_the_root_prefix(PowerSub(reg, 2), top)
    # arbitrary vertices over the whole of [0, hi], which may pass the end
    # of a custom table
    inner = data.draw(st.sets(st.integers(min_value=1, max_value=hi - 1)))
    _assert_batch_is_the_root_prefix(Regularized(seq, hi, (0, *sorted(inner), hi)), hi)


# -- results built without the order check ---------------------------------------------


@st.composite
def edge_intervals(draw):
    """Intervals that reach every sign case: zero endpoints, straddles and
    points are drawn often."""
    ends = st.one_of(st.just(F(0)), fractions(max_num=60))
    a = draw(ends)
    b = a if draw(st.integers(0, 3)) == 0 else draw(ends)
    return Interval(min(a, b), max(a, b))


def _hull(candidates):
    return Interval(min(candidates), max(candidates))


def _ends(iv):
    return (iv.lo, iv.hi)


def _assert_built(result, reference):
    assert result == reference
    assert type(result) is Interval
    assert type(result.lo) is F and type(result.hi) is F


@given(edge_intervals(), edge_intervals(), st.integers(-3, 3))
@settings(max_examples=300)
def test_ring_op_results_equal_the_checked_hull(x, y, k):
    _assert_built(x + y, _hull([u + v for u in _ends(x) for v in _ends(y)]))
    _assert_built(x - y, _hull([u - v for u in _ends(x) for v in _ends(y)]))
    _assert_built(x * y, _hull([u * v for u in _ends(x) for v in _ends(y)]))
    _assert_built(-x, _hull([-u for u in _ends(x)]))
    _assert_built(abs(x), _hull([abs(u) for u in _ends(x)] + [F(0)] * x.contains(0)))
    # integer operands on either side go through the point constructor
    _assert_built(x + k, _hull([u + k for u in _ends(x)]))
    _assert_built(k - x, _hull([k - u for u in _ends(x)]))
    _assert_built(k * x, _hull([k * u for u in _ends(x)]))
    if not y.contains(0):
        _assert_built(x / y, _hull([u / v for u in _ends(x) for v in _ends(y)]))
        _assert_built(y.reciprocal(), _hull([1 / v for v in _ends(y)]))
        _assert_built(k / y, _hull([k / v for v in _ends(y)]))


@given(edge_intervals(), st.integers(min_value=-4, max_value=6), fractions(max_num=20, min_value=F(0)))
@settings(max_examples=300)
def test_pow_int_and_widen_equal_the_checked_hull(x, e, m):
    if not (e < 0 and x.contains(0)):
        extra = [F(0)] if e > 0 and x.contains(0) else []
        _assert_built(x.pow_int(e), _hull([x.lo ** e, x.hi ** e] + extra))
    _assert_built(x.widen(m), _hull([x.lo - m, x.hi + m]))
    _assert_built(Interval.point(x.lo), Interval(x.lo, x.lo))


def _directed_dyadic(q, bits, up):
    """q rounded down (or up) to a dyadic with a ``bits``-bit mantissa."""
    if q == 0:
        return q
    e = abs(q.numerator).bit_length() - q.denominator.bit_length()
    if abs(q) < F(2) ** e:
        e -= 1
    scale = F(2) ** (bits - 1 - e)  # |q| scale lies in [2**(bits-1), 2**bits)
    units = -((-q * scale) // 1) if up else (q * scale) // 1
    return units / scale


@given(edge_intervals(), st.integers(min_value=2, max_value=40))
@settings(max_examples=300)
def test_outward_equals_the_exact_floor_and_ceiling(x, bits):
    lo, hi = _directed_dyadic(x.lo, bits, False), _directed_dyadic(x.hi, bits, True)
    _assert_built(x.outward(bits), Interval(lo, hi))


@st.composite
def ratio_operands(draw):
    """(p, d, bits): signed p and d > 0 under 4 kbit sharing a common factor,
    half of them exactly halfway between two ``bits``-bit mantissas."""
    bits = draw(st.integers(min_value=1, max_value=300))
    if draw(st.booleans()):
        # an odd mantissa one bit too long: its last bit is exactly one half
        p = draw(st.integers(min_value=1 << bits, max_value=(1 << bits + 1) - 1)) | 1
        p <<= draw(st.integers(min_value=0, max_value=500))
        d = 1 << draw(st.integers(min_value=0, max_value=2500))
    else:
        p = draw(st.integers(min_value=0, max_value=1 << 3000))
        d = draw(st.integers(min_value=1, max_value=1 << 3000))
    c = draw(st.integers(min_value=1, max_value=1 << 1000))
    return draw(st.sampled_from((1, -1))) * p * c, d * c, bits


@given(ratio_operands())
@settings(max_examples=400)
def test_round_to_nearest_equals_mpmath(operands):
    p, d, bits = operands
    assert _rounded_ratio(p, d, bits, "n") == libmp.from_rational(p, d, bits, "n")


# -- enclosures contain a high-precision reference ---------------------------------------


def _mpf_fraction(x) -> F:
    sign, man, exp, _ = x._mpf_
    v = F(int(man)) * F(2) ** exp
    return -v if sign else v


# the shifts of both depths at their default, shared across examples
_DEFAULT_LOGS = {k: IteratedLog(k) for k in (1, 2)}


@given(
    st.sampled_from([1, 2]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    st.integers(min_value=1, max_value=60),
    st.sampled_from([64, 128, 256]),
)
@settings(max_examples=60, deadline=None)
def test_iterated_log_enclosure_contains_a_reference(k, offset, n, bits):
    # L(s) > 0 needs s >= 2 for the log and s >= 3 for the log of the log
    if offset is None:
        seq = _DEFAULT_LOGS[k]
    else:
        seq = IteratedLog(k, offset=max(offset, k + 1))
    s = seq.shift
    with mpmath.workprec(4 * bits):

        def L(x):
            v = mpmath.mpf(x)
            for _ in range(k):
                v = mpmath.log(v)
            return v

        ref = mpmath.exp((s + n) * mpmath.log(L(s + n)) - s * mpmath.log(L(s)))
    assert seq.enclosure(n, bits).contains(_mpf_fraction(ref))


@given(
    fractions(max_num=10 ** 6, min_value=F(1, 10 ** 6)).filter(lambda q: q > 0),
    st.integers(min_value=2, max_value=12),
    st.sampled_from([64, 128, 256]),
)
@settings(max_examples=100, deadline=None)
def test_iv_pow_root_contains_a_reference(x, m, bits):
    with mpmath.workprec(4 * bits):
        ref = mpmath.root(mpmath.mpf(x.numerator) / x.denominator, m)
    assert iv_pow(x, F(1, m), bits).contains(_mpf_fraction(ref))


@st.composite
def one_degree_triples(draw):
    """Integer root forms of M_i, M_j, M_k sharing one root degree, each
    fraction unreduced; M_i or M_k may equal M_j in another form, so that
    x == y or z == w in the kernel's shortcut."""
    side = st.integers(min_value=1, max_value=10 ** 6)
    r = draw(st.integers(min_value=1, max_value=4))
    nj, dj = draw(side), draw(side)

    def point():
        if draw(st.booleans()):
            c = draw(st.integers(min_value=1, max_value=50))
            return (nj * c, dj * c, r)
        return (draw(side), draw(side), r)

    return point(), (nj, dj, r), point()


@given(
    one_degree_triples(),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
)
@settings(max_examples=300, deadline=None)
def test_one_degree_three_point_sign_is_the_power_comparison(forms, a, b):
    fi, fj, fk = forms
    # the common root degree r keeps the sign, so compare the r-th powers
    left = F(fi[0], fi[1]) ** a * F(fk[0], fk[1]) ** b
    right = F(fj[0], fj[1]) ** (a + b)
    assert _three_point_sign(fi, fj, fk, a, b) == (left > right) - (left < right)


# -- the global family rule -----------------------------------------------------------


def _rule_breaches(seq, window=(1, 120)):
    """The predicates that do not Hold with global scope on the window,
    for a sequence that the global family rule claims."""
    assert global_family_rule(seq) is not None, seq.describe()
    verdicts = {
        "increasing": is_increasing(seq, window),
        "base": is_log_convex(seq, window, "base"),
        "derived": is_log_convex(seq, window, "derived"),
    }
    return [name for name, v in verdicts.items() if not (v.ok and v.scope == "global")]


def _rule_members():
    """Iterated logs at and above the tower of each depth (3, 16 and
    3814280 are the default shifts), Gevrey weights with rational
    exponents, and power substitutions of depth 1 and 2 over some of them."""
    bases = [IteratedLog(1, s) for s in range(3, 41)]
    bases += [IteratedLog(2, s) for s in range(16, 31)]
    bases += [IteratedLog(3, 3814280 + j) for j in (0, 1, 7)]
    bases += [Gevrey(F(1, 3)), Gevrey(F(3, 2)), Gevrey(2)]
    subs = [IteratedLog(1, 3), IteratedLog(1, 17), IteratedLog(2, 16), IteratedLog(3, 3814280),
            Gevrey(F(2, 5))]
    return (
        bases
        + [PowerSub(b, 2) for b in subs]
        + [PowerSub(PowerSub(b, 2), 3) for b in subs]
    )


def test_the_global_family_rule_holds_on_every_member():
    for seq in _rule_members():
        assert not _rule_breaches(seq), seq.describe()


def test_the_rule_check_flags_a_tower_from_the_wrong_depth(monkeypatch):
    # a rule that used depth 1's tower (3) at depth 2 would claim these
    tower = seqcore.default_shift(1)
    monkeypatch.setattr(seqcore, "default_shift", lambda k, cfg=None: tower)
    for s in range(3, 9):
        seq = IteratedLog(2, s)
        assert seq.from_tower
        assert "base" in _rule_breaches(seq), s
