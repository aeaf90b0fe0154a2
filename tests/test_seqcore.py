"""Weight-sequence families, derived quantities, and certified predicates."""

import math
import random
from fractions import Fraction

import pytest

from carleman import seqcore
from carleman.scalar import (
    DEFAULT_CONFIG,
    ExactUnavailableError,
    Interval,
    ScalarConfig,
    iv_log_chain,
    outward_pow_product,
    refine_sign,
)
from carleman.seqcore import (
    Analytic,
    Custom,
    Gevrey,
    IteratedLog,
    PowerSub,
    SequenceError,
    Verdict,
    WeightSequence,
    Witness,
    _TOWER_SHIFTS,
    _display,
    _int_roots,
    _three_point_sign,
    compare_products,
    default_shift,
    derived_value,
    is_increasing,
    is_log_convex,
    ratio,
    settle,
    value,
)
from carleman.transforms import Regularized, log_convex_regularization

F = Fraction
EXACT = ScalarConfig(mode="exact")
IVAL = ScalarConfig(mode="interval", bits=128)


def brute_force_ratio(seq, k):
    """Independent oracle: the literal quotient of derived values."""
    import math

    return (
        math.factorial(k + 1) * seq.exact(k + 1) / (math.factorial(k) * seq.exact(k))
    )


def test_value_examples():
    assert value(Analytic(), 7, EXACT).fraction() == 1
    assert value(Gevrey(1), 4, EXACT).fraction() == 24
    assert value(IteratedLog(2), 0, EXACT).fraction() == 1


def test_derived_value_examples():
    assert derived_value(Analytic(), 5, EXACT).fraction() == 120
    for seq in (Analytic(), Gevrey(2), IteratedLog(1)):
        assert derived_value(seq, 0, EXACT).fraction() == 1
    assert derived_value(Gevrey(1), 3, EXACT).fraction() == 36


def test_ratio_against_brute_force_quotient():
    ana = Analytic()
    for k in range(8):
        expected = brute_force_ratio(ana, k)
        assert ratio(ana, k, EXACT).fraction() == expected
        assert expected == k + 1
    gev = Gevrey(1)
    for k in range(6):
        assert ratio(gev, k, EXACT).fraction() == brute_force_ratio(gev, k)
    # m_0 = M'_1 / M'_0 = M_1 for any family
    assert ratio(gev, 0, EXACT).fraction() == value(gev, 1, EXACT).fraction()


def test_exact_mode_is_canonical_reduced():
    s = Custom(table=[F(2, 4), F(4, 4)])
    # normalization divides by M_0, values canonical
    assert value(s, 1, EXACT).fraction() == F(2)


def test_gevrey_rational_exponent():
    g = Gevrey(F(1, 2))
    assert value(g, 0, EXACT).fraction() == 1
    with pytest.raises(ExactUnavailableError):
        value(g, 3, EXACT)
    enc = value(g, 3, IVAL).interval()
    # the enclosure squares back around 6
    sq = enc.pow_int(2)
    assert sq.contains(F(6)) and sq.width < F(1, 2 ** 100)
    assert g.as_root(3) == (F(6), 2)


class _RootOnly(WeightSequence):
    """A sequence that states its values through ``_root`` alone."""

    FORMS = [(F(1), 1), (F(5, 3), 1), (F(9, 4), 2), (F(2), 2), (F(8, 27), 3), None]

    def _root(self, n):
        return self.FORMS[n]


def test_exact_and_enclosures_derive_from_the_root_hook():
    seq = _RootOnly()
    assert [seq.exact(n) for n in range(6)] == [1, F(5, 3), F(3, 2), None, F(2, 3), None]
    for n, q in ((1, F(5, 3)), (2, F(3, 2)), (4, F(2, 3))):
        enc = seq.enclosure(n, IVAL.bits)
        assert enc.lo == enc.hi == q
    # sqrt(2) at the working bits
    enc = seq.enclosure(3, IVAL.bits)
    assert enc.lo ** 2 < 2 < enc.hi ** 2 and enc.width < F(1, 2 ** 120)
    with pytest.raises(NotImplementedError):
        seq.enclosure(5, IVAL.bits)


def test_is_increasing_examples():
    assert is_increasing(Analytic(), (1, 16)).ok
    assert is_increasing(Analytic(), (1, 16)).scope == "global"
    assert is_increasing(IteratedLog(1), (1, 32)).ok
    v = is_increasing(Custom(table=[1, 2, F(3, 2), 4]), (0, 2))
    assert v.outcome == "fails" and v.witness.index == 1


def test_is_log_convex_examples():
    assert is_log_convex(Gevrey(1), (1, 24), "base").ok
    v = is_log_convex(Custom(rule=lambda n: n + 1), (1, 8))
    assert v.outcome == "fails" and v.witness.index == 1
    assert is_log_convex(IteratedLog(2), (1, 24), "base").ok
    assert is_log_convex(IteratedLog(1), (1, 24), "base").ok


def test_log_convex_base_implies_derived():
    for seq in (Analytic(), Gevrey(1), IteratedLog(2), Custom(table=[1, 2, 8, 64])):
        win = (1, 2) if isinstance(seq, Custom) else (1, 16)
        if is_log_convex(seq, win, "base").ok:
            assert is_log_convex(seq, win, "derived").ok


def test_verdict_fails_requires_witness_or_global_provenance():
    assert Verdict.fails((0, 3), Witness(2)).witness.index == 2
    oracle = Verdict.fails((0, 3), scope="global", provenance="family oracle")
    assert oracle.outcome == "fails" and oracle.witness is None
    with pytest.raises(ValueError):
        Verdict.fails((0, 3))
    with pytest.raises(ValueError):
        Verdict.fails((0, 3), scope="global")


def test_unresolved_writes_the_at_the_cap_note():
    v = Verdict.unresolved((2, 5), "comparison at n=3")
    assert (v.outcome, v.window, v.witness, v.provenance) == ("inconclusive", (2, 5), None, None)
    assert str(v) == "inconclusive on [2, 5]; comparison at n=3 unresolved at the precision cap"


def test_settle_climbs_while_open_and_keeps_the_top_rung():
    cfg = ScalarConfig(bits=16, max_doublings=3)
    rungs = []

    def open_until(top):
        def decide(bits):
            rungs.append(bits)
            if bits < top:
                return Verdict.unresolved((0, 1), f"at {bits} bits")
            return Verdict.holds((0, 1)), Interval.point(bits)
        return decide

    # a pair passes through once its Verdict decides
    assert settle(open_until(64), cfg) == (Verdict.holds((0, 1)), Interval.point(64))
    assert rungs == [16, 32, 64]
    rungs.clear()
    # at the cap the top rung's Inconclusive is the result
    v = settle(open_until(256), cfg)
    assert rungs == [16, 32, 64, 128]
    assert str(v.trend) == "at 128 bits unresolved at the precision cap"
    # a Fails ends the ladder as a Holds does
    fails = Verdict.fails((0, 1), Witness(1))
    assert settle(lambda bits: fails, cfg) is fails


def test_iterated_log_default_shifts():
    assert IteratedLog(1).shift == 3
    assert IteratedLog(2).shift == 16
    with pytest.raises(SequenceError):
        IteratedLog(0)


def test_default_shift_certifies_the_tower_table():
    # IteratedLog reads its default shift and from_tower from the table
    assert tuple(default_shift(k) for k in (1, 2, 3)) == _TOWER_SHIFTS
    assert [IteratedLog(k).shift for k in (1, 2, 3)] == list(_TOWER_SHIFTS)
    assert IteratedLog(2, 16).from_tower and not IteratedLog(2, 15).from_tower
    for make in (lambda: default_shift(4), lambda: IteratedLog(4)):
        with pytest.raises(SequenceError, match="millions of digits; pass an explicit offset"):
            make()
    assert not IteratedLog(4, 10 ** 7).from_tower


def test_default_shift_k3_certified_against_mpmath():
    import mpmath

    mpmath.mp.prec = 80
    tower = mpmath.exp(mpmath.exp(mpmath.e))
    assert default_shift(3) == int(mpmath.floor(tower)) + 1


def test_iterated_log_offset_validation():
    # k=2 with offset 3 is the smallest valid shift (log log 3 > 0 needs 3 > e)
    seq = IteratedLog(2, offset=3)
    assert seq.shift == 3
    with pytest.raises(SequenceError):
        IteratedLog(2, offset=2)  # log log 2 < 0
    with pytest.raises(SequenceError):
        IteratedLog(1, offset=1)  # log 1 = 0
    with pytest.raises(SequenceError):
        IteratedLog(2, offset=1)  # log(log 1) undefined


def test_iterated_log_enclosure_positive_and_growing():
    seq = IteratedLog(2)
    prev = Interval.point(1)
    for n in range(1, 20):
        enc = seq.enclosure(n, 128)
        assert enc.lo > 0
        assert enc.lo > prev.hi * F(99, 100)
        prev = enc


def test_iterated_log_k3_default_shift_encloses_mpmath():
    """Depth 3 at its default shift s = 3 814 280: the enclosures are rounded
    once from directed bounds, never formed as exact s-th powers."""
    import mpmath

    seq = IteratedLog(3)
    s = seq.shift
    for bits in (128, 256):
        ctx = mpmath.mp.clone()
        ctx.prec = 4 * bits

        def l3(x):
            return ctx.log(ctx.log(ctx.log(x)))

        for n in range(17):
            man, exp = ctx.exp((s + n) * ctx.log(l3(s + n)) - s * ctx.log(l3(s))).man_exp
            ref = F(man) * F(2) ** exp
            slack = ref / 2 ** (3 * bits)  # the reference's own rounding, amply
            enc = seq.enclosure(n, bits)
            assert enc.lo - slack <= ref <= enc.hi + slack, (bits, n)
            assert enc.width <= ref / 2 ** (bits - 40), (bits, n)


def test_powersub_identity_extensional():
    base = Gevrey(1)
    ps = PowerSub(base, 1)
    for n in range(12):
        assert ps.exact(n) == base.exact(n)


def test_powersub_rejects_zero():
    with pytest.raises(SequenceError):
        PowerSub(Analytic(), 0)


def test_custom_table_bounds_and_positivity():
    s = Custom(table=[1, 2, 3])
    with pytest.raises(SequenceError):
        s.exact(3)
    with pytest.raises(SequenceError):
        Custom(table=[1, 0, 3])
    with pytest.raises(SequenceError):
        Custom(table=[])


def test_custom_table_positivity_is_decided_before_normalizing():
    # dividing by M_0 would make [-1, -2] positive and [0, 1] divide by zero
    for table in ([-1, -2], [0, 1], [2, -4], [F(-1, 3)], [1, 2, F(-5, 7)]):
        with pytest.raises(SequenceError, match="strictly positive"):
            Custom(table=table)
    seq = Custom(table=[2, 4, 8])
    assert _int_roots(seq, 0, 2) == [(1, 1, 1), (2, 1, 1), (4, 1, 1)]
    assert [seq.exact(n) for n in range(3)] == [1, 2, 4]
    seq = Custom(table=[F(2, 3), 1, F(1, 6)])
    assert _int_roots(seq, 0, 2) == [(1, 1, 1), (3, 2, 1), (1, 4, 1)]


def test_derived_ratio_identity():
    # M'_n / M'_{n-1} == m_{n-1} exactly in rational mode
    for seq in (Analytic(), Gevrey(1), Gevrey(3), Custom(table=[1, 3, 9, 81, 243])):
        top = 4 if isinstance(seq, Custom) else 8
        for n in range(1, top + 1):
            lhs = derived_value(seq, n, EXACT).fraction() / derived_value(
                seq, n - 1, EXACT
            ).fraction()
            assert lhs == ratio(seq, n - 1, EXACT).fraction()


def test_interval_encloses_quadruple_precision_float():
    cfg_f = ScalarConfig(mode="float", bits=512)
    cfg_i = ScalarConfig(mode="interval", bits=128)
    for seq in (Analytic(), Gevrey(1), Gevrey(F(1, 2)), IteratedLog(1), IteratedLog(2)):
        for n in (0, 1, 5, 17):
            fl = value(seq, n, cfg_f)
            enc = value(seq, n, cfg_i).interval()
            sign, man, exp, _ = fl.approx._mpf_
            approx = F(int(man)) * F(2) ** exp
            if sign:
                approx = -approx
            assert enc.contains(approx)


def test_value_index_validation():
    with pytest.raises(SequenceError):
        value(Analytic(), -1)


def _reference_sign(lhs, rhs, ls=1, rs=1):
    """The sign by Fraction products raised to the common root degree."""
    roots_l = [seq.as_root(n) for seq, n, _ in lhs]
    roots_r = [seq.as_root(n) for seq, n, _ in rhs]
    den = 1
    for _, d in roots_l + roots_r:
        den = den * d // math.gcd(den, d)
    left = F(ls) ** den
    for (_, _, e), (q, d) in zip(lhs, roots_l):
        left *= q ** (e * den // d)
    right = F(rs) ** den
    for (_, _, e), (q, d) in zip(rhs, roots_r):
        right *= q ** (e * den // d)
    return (left > right) - (left < right)


def _random_factors(rng, seq, top, count):
    return [(seq, rng.randint(0, top), rng.randint(1, 4)) for _ in range(count)]


def test_compare_products_exact_branch_matches_fraction_reference():
    rng = random.Random(5)
    N = 12
    tables = [
        Custom(table=[1] + [F(rng.randint(1, 999), rng.randint(1, 999)) for _ in range(N)])
        for _ in range(6)
    ]
    regs = [log_convex_regularization(t, (0, N)) for t in tables]
    assert any(reg.as_root(n)[1] > 1 for reg in regs for n in range(N + 1))
    seqs = tables + regs + [Gevrey(F(1, 2)), Gevrey(F(2, 3))]
    signs = set()
    for seq in seqs:
        for _ in range(40):
            lhs = _random_factors(rng, seq, N, rng.randint(0, 3))
            rhs = _random_factors(rng, seq, N, rng.randint(0, 3))
            ls = F(rng.randint(1, 50), rng.randint(1, 50))
            rs = rng.choice([1, 7, F(3, 4)])
            expected = _reference_sign(lhs, rhs, ls, rs)
            assert compare_products(lhs, rhs, lhs_scale=ls, rhs_scale=rs) == expected
            signs.add(expected)
    assert signs == {-1, 0, 1}


def test_compare_products_exact_ties_on_geometric_tables():
    for ratio_ in (F(3), F(2, 7), F(1)):
        seq = Custom(table=[ratio_ ** n for n in range(10)])
        for i, j, k in ((0, 1, 2), (1, 4, 9), (2, 5, 7)):
            lhs, rhs = [(seq, i, k - j), (seq, k, j - i)], [(seq, j, k - i)]
            assert _reference_sign(lhs, rhs) == 0
            assert compare_products(lhs, rhs) == 0
    # q**(1/d) interpolants inside one hull segment of a regularization tie too
    reg = log_convex_regularization(Custom(table=[1, 8, 2, 64, 3, 4096]), (0, 5))
    assert reg.vertices == (0, 4, 5)
    for j in range(1, 5):
        lhs, rhs = [(reg, j - 1, 1), (reg, j + 1, 1)], [(reg, j, 2)]
        assert compare_products(lhs, rhs) == _reference_sign(lhs, rhs) == (0 if j < 4 else 1)


def test_compare_products_scale_types_and_refusals():
    seq = Custom(table=[1, 2, 6])
    lhs, rhs = [(seq, 1, 2)], [(seq, 0, 1), (seq, 2, 1)]  # 4 against 6
    for ls, rs, want in (
        (1, 1, -1), (True, True, -1), (3, 2, 0), (F(3), 2, 0), (F(7, 2), True, 1),
        (True, F(2, 3), 0), (F(6, 4), 1, 0),
    ):
        assert compare_products(lhs, rhs, lhs_scale=ls, rhs_scale=rs) == want, (ls, rs)
    # the interval path takes the same scales
    it = IteratedLog(1)
    assert compare_products([(it, 1, 1)], [], IVAL, True, F(10 ** 6)) == -1
    assert compare_products([(it, 1, 1)], [], IVAL, 10 ** 6, F(1, 3)) == 1
    for side in (lhs, [(it, 1, 1)]):
        for bad in (0, -1, F(-1, 2), False):
            with pytest.raises(ValueError):
                compare_products(side, rhs, lhs_scale=bad)
            with pytest.raises(ValueError):
                compare_products(side, rhs, rhs_scale=bad)
        with pytest.raises(TypeError):
            compare_products(side, rhs, lhs_scale=1.5)
        with pytest.raises(TypeError):
            compare_products(side, rhs, rhs_scale=2.0)


# -- the integer log-convexity sweep against compare_products ---------------------


def _reference_log_convex(seq, window, which):
    """(first failing n or None, its witness text) by compare_products on every n."""
    a, b = window
    for n in range(a, b + 1):
        ls, rs = (1, 1) if which == "base" else (n, n + 1)
        sign = compare_products(
            [(seq, n, 2)], [(seq, n - 1, 1), (seq, n + 1, 1)], lhs_scale=ls, rhs_scale=rs
        )
        if sign > 0:
            return n, f"n={n}: " + ", ".join(
                f"M_{m}={_display(seq, m, DEFAULT_CONFIG)}" for m in (n - 1, n, n + 1)
            )
    return None, None


def _log_convex_or_error(fn):
    try:
        return fn()
    except SequenceError as exc:
        return ("raised", str(exc))


def _check_against_reference(seq, window, which):
    """is_log_convex against the reference; returns the outcome."""
    v = is_log_convex(seq, window, which)
    n, text = _reference_log_convex(seq, window, which)
    if n is None:
        assert v.ok, (seq.describe(), window, which)
    else:
        assert v.outcome == "fails" and v.witness.index == n, (seq.describe(), window, which)
        assert str(v.witness) == text
    return v.outcome


def _count_compare_products(monkeypatch):
    from carleman import seqcore

    calls = []
    orig = seqcore.compare_products

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(seqcore, "compare_products", counted)
    return calls


def test_log_convexity_matches_the_compare_products_reference(monkeypatch):
    rng = random.Random(31)
    tables = []
    for N in (3, 9, 24, 64):
        tables.append([1] + [F(rng.randint(1, 4096), rng.randint(1, 4096)) for _ in range(N)])
        ratios = sorted(F(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(N))
        table = [F(1)]
        for r in ratios:
            table.append(table[-1] * r)
        tables.append(table)
        tables.append([F(5, 3) ** n for n in range(N + 1)])
        # log-convex but for one dent, somewhere past the start
        dent = list(table)
        dent[rng.randint(1, N - 1)] *= 2
        tables.append(dent)
    verdicts = set()
    for table in tables:
        seq = Custom(table=table)
        top = len(table) - 1
        for window in ((1, top - 1), (2, top - 1), (top - 1, top - 1)):
            for which in ("base", "derived"):
                verdicts.add(_check_against_reference(seq, window, which))
    assert verdicts == {"holds", "fails"}
    # root forms of degree above 1, and interpolated regularization values
    for seq in (Gevrey(F(2, 3)), log_convex_regularization(Custom(table=tables[0]), (0, 3))):
        for which in ("base", "derived"):
            n, _ = _reference_log_convex(seq, (1, 2), which)
            assert is_log_convex(seq, (1, 2), which).ok == (n is None)
    # the other families with a batch; tables[12], [13] and [15] hold 65
    # points: random, log-convex and log-convex but for one dent
    random_, convex, dent = (Custom(table=tables[i]) for i in (12, 13, 15))
    seqs = [
        (Analytic(), 30), (Gevrey(2), 30), (PowerSub(random_, 2), 32),
        (PowerSub(random_, 3), 21), (PowerSub(convex, 2), 32), (PowerSub(dent, 2), 32),
        (PowerSub(log_convex_regularization(random_, (0, 64)), 2), 32),
    ]
    calls = _count_compare_products(monkeypatch)
    verdicts = set()
    for seq, top in seqs:
        for window in ((1, top - 1), (2, top - 1), (top - 1, top - 1)):
            verdicts.add(_check_against_reference(seq, window, "base"))
    assert verdicts == {"holds", "fails"}
    # the base sweep over a batch never calls compare_products, and a rule's
    # batch derives from its forms too
    rule = Custom(rule=lambda n: F(n * n % 7 + 1, n % 5 + 1))
    for window in ((1, 19), (4, 19)):
        _check_against_reference(rule, window, "base")
    assert calls == []
    # a sequence without exact forms past M_0 sends every n to it
    for window in ((1, 19), (4, 19)):
        _check_against_reference(IteratedLog(1), window, "base")
    assert len(calls) == 35


def test_log_convexity_of_regularizations_matches_the_compare_products_reference():
    rng = random.Random(37)
    seqs = []
    for N in (3, 9, 24, 40):
        random_table = [1] + [F(rng.randint(1, 4096), rng.randint(1, 4096)) for _ in range(N)]
        geometric = [F(5, 3) ** n for n in range(N + 1)]
        for table in (random_table, geometric):
            reg = log_convex_regularization(Custom(table=table), (0, N))
            inner = rng.sample(range(1, N), rng.randint(0, N - 1))
            # interpolation between arbitrary points: log-convex or not
            arbitrary = Regularized(Custom(table=table), N, tuple(sorted({0, N, *inner})))
            seqs += [(reg, N), (log_convex_regularization(reg, (0, N)), N), (arbitrary, N)]
    outcomes = set()
    for seq, N in seqs:
        for window in ((1, N - 1), (2, N - 1), (N - 1, N - 1)):
            v = is_log_convex(seq, window)
            n, text = _reference_log_convex(seq, window, "base")
            outcomes.add(v.outcome)
            if n is None:
                assert v.ok, (seq.describe(), window)
            else:
                assert v.outcome == "fails" and str(v.witness) == text, (seq.describe(), window)
    assert outcomes == {"holds", "fails"}


def test_log_convexity_past_a_custom_table_raises_at_the_reference_index():
    seqs = [
        Custom(table=[1, 2, 4, 8, 16]),  # log-linear: every n ties
        Custom(table=[1, 3, 4, 8, 16]),  # Fails at n=1
        Custom(table=[1, 2, 4, 9, 16]),  # Fails at n=3, the last n with M_{n+1}
        Custom(rule=lambda n: 1 if n in (0, 2) else -1),  # nonpositive at 1 and 3
        # root forms in one batch up to index 3, the base's table end after it
        Regularized(Custom(table=[1, 2, 5, 9, 30]), 8, (0, 3, 8)),
        Regularized(Custom(table=[1, 3, 5, 9, 30]), 8, (0, 1, 2, 3, 8)),
        PowerSub(Custom(table=[1, 2, 5, 9, 30, 80, 250]), 2),  # base table ends at 6
        PowerSub(Custom(rule=lambda n: 1 if n < 5 else -1), 2),  # nonpositive from 5
    ]
    windows = ((1, 6), (3, 5), (4, 6), (5, 8), (7, 9))
    for seq in seqs:
        for window in windows:
            for which in ("base", "derived"):
                want = _log_convex_or_error(lambda: _reference_log_convex(seq, window, which))
                got = _log_convex_or_error(lambda: is_log_convex(seq, window, which))
                if want[0] == "raised":
                    assert got == want, (seq, window, which)
                elif want[0] is None:
                    assert got.ok
                else:
                    assert got.outcome == "fails" and got.witness.index == want[0]


def test_a_batch_grows_with_hi_and_stops_for_good_at_the_first_index_without_a_form():
    calls = []

    def rule(n):
        calls.append(n)
        return 1 if n < 5 else -1

    seq = Custom(rule=rule)
    assert seq._int_forms(3) == [(1, 1, 1)] * 4
    assert seq._int_forms(10) == [(1, 1, 1)] * 5
    # the batch read the rule once per index, up to the first bad one
    assert calls == [0, 0, 1, 2, 3, 4, 5]
    assert len(seq._int_forms(20)) == 5 and calls[-1] == 5 and len(calls) == 7
    with pytest.raises(SequenceError, match="nonpositive value at n=5"):
        seq.as_root(5)


def test_a_batch_stops_at_any_error_and_the_sweep_raises_past_it():
    seq = Custom(rule=lambda n: (1, 3, 1)[n] if n < 3 else 1.5)
    # a float value is a TypeError in _root; the batch stops before it
    assert _int_roots(seq, 0, 4) == [(1, 1, 1), (3, 1, 1), (1, 1, 1)]
    v = is_log_convex(seq, (1, 4))
    assert v.outcome == "fails" and v.witness.index == 1
    with pytest.raises(TypeError, match="float"):
        is_log_convex(seq, (2, 4))


def test_a_base_sweep_that_fails_early_reads_few_points():
    calls = []

    def rule(n):
        calls.append(n)
        return 3 if n == 1 else 1

    v = is_log_convex(Custom(rule=rule), (1, 3000))
    assert v.outcome == "fails" and v.witness.index == 1
    assert len(calls) < 100


def test_a_base_sweep_asks_its_batch_a_few_times_and_in_growing_chunks():
    seq = Analytic()
    asked = []
    batch = seq._int_forms

    def counted(hi):
        asked.append(hi)
        return batch(hi)

    seq._int_forms = counted
    assert is_log_convex(seq, (1, 3000)).ok
    assert asked[-1] == 3001 and len(asked) <= 12
    assert all(b >= 2 * a for a, b in zip(asked, asked[1:-1]))


def test_log_convexity_without_root_forms_uses_compare_products(monkeypatch):
    calls = _count_compare_products(monkeypatch)
    assert is_log_convex(Gevrey(F(1, 2)), (1, 12)).ok and calls == []
    assert is_log_convex(IteratedLog(1), (1, 6)).ok
    assert len(calls) == 6


def test_three_point_sign_matches_compare_products():
    rng = random.Random(41)
    N = 16
    tables = [
        Custom(table=[1] + [F(rng.randint(1, 999), rng.randint(1, 999)) for _ in range(N)])
        for _ in range(4)
    ]
    # geometric tables tie on every collinear triple; regularizations mix
    # vertices of degree 1 with interpolants of higher degree, which tie
    # inside a segment
    tables += [Custom(table=[F(3, 7) ** n for n in range(N + 1)]), Custom(table=[1] * (N + 1))]
    regs = [log_convex_regularization(t, (0, N)) for t in tables[:4]]
    seqs = tables + regs + [Gevrey(F(2, 3)), PowerSub(Gevrey(F(1, 2)), 2)]
    seen = set()
    for seq in seqs:
        forms = _int_roots(seq, 0, N)
        assert len(forms) == N + 1
        for _ in range(60):
            i, j, k = sorted(rng.sample(range(N + 1), 3))
            g = rng.choice((1, 1, 2, 3))
            # the hull's exponents, or arbitrary ones
            a, b = rng.choice(((k - j, j - i), (rng.randint(1, 6), rng.randint(1, 6))))
            a, b = a * g, b * g
            want = compare_products([(seq, i, a), (seq, k, b)], [(seq, j, a + b)])
            assert _three_point_sign(forms[i], forms[j], forms[k], a, b) == want, (seq, i, j, k, a, b)
            degrees = "equal" if forms[i][2] == forms[j][2] == forms[k][2] else "mixed"
            seen.add((degrees, want, math.gcd(a, b) > 1, a != b))
    assert {d for d, _, _, _ in seen} == {"equal", "mixed"}
    assert {w for _, w, _, _ in seen} == {-1, 0, 1}
    assert {("equal", 0, True), ("mixed", 0, False), ("mixed", 1, True)} <= {s[:3] for s in seen}
    # unequal exponents on one root degree, every sign among them
    assert {w for d, w, _, unequal in seen if d == "equal" and unequal} == {-1, 0, 1}


# -- the integer interval branch against the Interval products it replaced ---------


def _interval_product_diff(lhs, rhs, lhs_scale, rhs_scale):
    """lhs_scale prod(lhs) - rhs_scale prod(rhs) as Interval products: the
    interval branch of compare_products before it worked on integers."""

    def diff(bits):
        left = Interval.point(lhs_scale)
        for seq, n, e in lhs:
            left = left * seq.enclosure(n, bits).pow_int(e)
        right = Interval.point(rhs_scale)
        for seq, n, e in rhs:
            right = right * seq.enclosure(n, bits).pow_int(e)
        return left - right

    return diff


class _EnclosedOnly(WeightSequence):
    """A sequence read through its enclosures alone, so that every
    comparison on it takes the interval branch."""

    def __init__(self, base):
        super().__init__()
        self.base = base

    def _root(self, n):
        return None

    def _enclosure(self, n, bits):
        return self.base.enclosure(n, bits)


def _sign_of(x):
    return (x > 0) - (x < 0)


def test_interval_branch_decides_as_the_interval_products(monkeypatch):
    diffs = []

    def spy(diff, cfg):
        diffs.append(diff)
        return refine_sign(diff, cfg)

    monkeypatch.setattr(seqcore, "refine_sign", spy)
    it1, it2 = IteratedLog(1), IteratedLog(2)
    it1_off, it2_off = IteratedLog(1, 5), IteratedLog(2, 20)
    gev = _EnclosedOnly(Gevrey(F(1, 2)))
    ps = PowerSub(it2, 3)
    reg = log_convex_regularization(it1_off, (0, 12))
    assert reg.as_root(5) is None
    tie = _EnclosedOnly(Custom(table=[1, 2, 4, 8]))
    cases = []
    for seq in (it1, it2, it1_off, it2_off, gev, ps, reg):
        for n in (1, 4, 7):
            cases.append(([(seq, n, 2)], [(seq, n - 1, 1), (seq, n + 1, 1)], 1, 1))
            cases.append(([(seq, n, 1)], [(seq, n + 1, 1)], F(n + 2, 3), 1))
        # the hull's largest exponents
        cases.append(([(seq, 2, 32), (seq, 10, 32)], [(seq, 6, 64)], 1, 1))
        cases.append(([(seq, 1, 64)], [(seq, 0, 63), (seq, 2, 1)], 7, F(5, 2)))
        # sides 2**-300 apart, relatively: decided only after doublings
        cases.append(([(seq, 3, 2)], [(seq, 3, 1), (seq, 3, 1)], 1 + F(1, 2 ** 300), 1))
    # exact factors next to irrational ones, and an exact tie on intervals
    cases.append(([(Custom(table=[1, F(9, 7)]), 1, 3), (it2, 4, 1)], [(Analytic(), 5, 2), (gev, 3, 1)], 1, 2))
    cases.append(([(Gevrey(3), 4, 1), (it1, 2, 5)], [(it1, 3, 5)], F(2, 11), 3))
    cases.append(([(tie, 1, 2)], [(tie, 0, 1), (tie, 2, 1)], 1, 1))
    cases.append(([(tie, 2, 3)], [(tie, 3, 2)], 4, 1))
    cfg = ScalarConfig(bits=128)
    ladder = [cfg.bits << i for i in range(cfg.max_doublings + 1)]
    signs, escalated = set(), False
    for lhs, rhs, ls, rs in cases:
        diffs.clear()
        got = compare_products(lhs, rhs, cfg, ls, rs)
        (diff,) = diffs
        ref = _interval_product_diff(lhs, rhs, ls, rs)
        assert got == refine_sign(ref, cfg)
        # up to the bits that decide: a positive multiple of the Interval
        # difference has the signs of its endpoints
        for step, bits in enumerate(ladder):
            new, old = diff(bits), ref(bits)
            ends = (_sign_of(old.lo), _sign_of(old.hi))
            assert (_sign_of(new.lo), _sign_of(new.hi)) == ends
            if ends[1] < 0 or ends[0] > 0 or ends == (0, 0):
                break  # refine_sign's decision
        escalated |= step > 0
        signs.add(got)
    assert signs == {-1, 0, 1} and escalated


def test_interval_branch_refuses_an_enclosure_that_is_not_positive():
    class Sloppy(_EnclosedOnly):
        def _enclosure(self, n, bits):
            return Interval(F(-1, 2), F(3))

    seq = Sloppy(Analytic())
    with pytest.raises(SequenceError):
        compare_products([(seq, 1, 2)], [(seq, 2, 1)], IVAL)


def test_iterated_log_keeps_the_powers_of_its_constant_per_precision():
    it = IteratedLog(2, 20)
    s, k = it.shift, it.k
    for bits in (128, 256, 128):
        for n in range(1, 13):
            want = outward_pow_product(
                iv_log_chain(s + n, k, bits), s + n, iv_log_chain(s, k, bits), -s, bits + 8
            )
            got = it._enclosure(n, bits)
            assert (got.lo, got.hi) == (want.lo, want.hi), (n, bits)
    assert sorted(it._base_log) == [128, 256]
    # one memo per precision, keyed by the working precision of each call
    assert all(memo and all(type(wp) is int for wp in memo) for _, memo in it._base_log.values())
