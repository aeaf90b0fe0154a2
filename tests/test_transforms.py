"""Power substitution and log-convex regularization, with a brute-force
minorant oracle for small windows."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from carleman.criteria import _ShiftedView
from carleman.scalar import Interval, PrecisionError, ScalarConfig
from carleman.seqcore import (
    Analytic,
    Custom,
    Gevrey,
    IteratedLog,
    PowerSub,
    SequenceError,
    WeightSequence,
    _int_roots,
    compare_products,
    is_increasing,
    is_log_convex,
)
from carleman.transforms import (
    Regularized,
    derived_power_substitution,
    log_convex_regularization,
)

F = Fraction
EXACT = ScalarConfig(mode="exact")


# -- oracle: exhaustive greatest log-convex minorant ---------------------------
# Values are represented as pairs (q, d) meaning q ** (1/d); comparisons clear
# denominators, so the oracle is exact end to end.


def _le(a, b):
    (qa, da), (qb, db) = a, b
    return qa ** db <= qb ** da


def _eq(a, b):
    (qa, da), (qb, db) = a, b
    return qa ** db == qb ** da


def _candidate(vals, verts):
    out = []
    for n in range(len(vals)):
        a = max(v for v in verts if v <= n)
        b = min(v for v in verts if v >= n)
        if a == b:
            out.append((vals[n], 1))
        else:
            out.append((vals[a] ** (b - n) * vals[b] ** (n - a), b - a))
    return out


def _log_convex_pairs(cand):
    for n in range(1, len(cand) - 1):
        (qm, dm) = cand[n]
        (qa, da) = cand[n - 1]
        (qb, db) = cand[n + 1]
        lcm = da * db // math.gcd(da, db)
        prod = (qa ** (lcm // da) * qb ** (lcm // db), lcm)
        if not _le((qm ** 2, dm), prod):
            return False
    return True


def minorant_oracle(vals):
    """Pointwise max over every log-convex minorant interpolating a vertex
    subset; exhaustive, so only for small windows."""
    n_max = len(vals) - 1
    best = None
    for r in range(n_max):
        for interior in combinations(range(1, n_max), r):
            verts = (0, *interior, n_max)
            cand = _candidate(vals, verts)
            if not all(_le(cand[n], (vals[n], 1)) for n in range(len(vals))):
                continue
            if not _log_convex_pairs(cand):
                continue
            if best is None:
                best = cand
            else:
                best = [b if _le(c, b) else c for b, c in zip(best, cand)]
    return best


def _reg_root(reg, n):
    rep = reg.as_root(n)
    assert rep is not None
    return rep


# -- regularization ------------------------------------------------------------


def test_regularization_spec_window_example():
    seq = Custom(table=[1, 8, 2, 64])
    reg = log_convex_regularization(seq, (0, 3))
    assert reg.vertices == (0, 2, 3)
    expected = minorant_oracle([F(1), F(8), F(2), F(64)])
    for n in range(4):
        assert _eq(_reg_root(reg, n), expected[n])
    # the interpolated value at n=1 is sqrt(2)
    q, d = _reg_root(reg, 1)
    assert (q, d) == (F(2), 2) or q ** 2 == F(2) ** d


def test_regularization_fixed_point_on_log_convex_input():
    seq = Custom(table=[1, 2, 8, 64])
    reg = log_convex_regularization(seq, (0, 3))
    assert reg.vertices == (0, 1, 2, 3)
    for n in range(4):
        assert reg.exact(n) == seq.exact(n)


def test_regularization_matches_bruteforce_oracle_randomized():
    rng = random.Random(20240817)
    for _ in range(25):
        n_max = rng.randint(2, 7)
        vals = [F(1)] + [
            F(rng.randint(1, 4096), rng.randint(1, 4096)) for _ in range(n_max)
        ]
        seq = Custom(table=vals)
        reg = log_convex_regularization(seq, (0, n_max))
        expected = minorant_oracle([seq.exact(n) for n in range(n_max + 1)])
        for n in range(n_max + 1):
            assert _eq(_reg_root(reg, n), expected[n]), (vals, n)


def test_regularization_idempotent():
    rng = random.Random(7)
    for _ in range(10):
        vals = [F(1)] + [F(rng.randint(1, 999), rng.randint(1, 999)) for _ in range(12)]
        reg = log_convex_regularization(Custom(table=vals), (0, 12))
        reg2 = log_convex_regularization(reg, (0, 12))
        assert reg2.vertices == tuple(range(13))
        for n in range(13):
            assert _eq(_reg_root(reg2, n), _reg_root(reg, n))


def test_regularization_minorant_and_log_convex():
    rng = random.Random(99)
    for _ in range(10):
        vals = [F(1)] + [F(rng.randint(1, 999), rng.randint(1, 999)) for _ in range(10)]
        seq = Custom(table=vals)
        reg = log_convex_regularization(seq, (0, 10))
        for n in range(11):
            q, d = _reg_root(reg, n)
            assert q <= seq.exact(n) ** d
        assert is_log_convex(reg, (1, 9)).ok


def test_regularization_monotone_in_input():
    rng = random.Random(4242)
    for _ in range(10):
        small = [F(1)] + [F(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(8)]
        big = [v * F(rng.randint(1, 5)) for v in small]
        big[0] = F(1)
        ra = log_convex_regularization(Custom(table=small), (0, 8))
        rb = log_convex_regularization(Custom(table=[max(s, b) for s, b in zip(small, big)]), (0, 8))
        for n in range(9):
            assert _le(_reg_root(ra, n), _reg_root(rb, n))


def test_regularization_of_iterated_log_is_fixed_point():
    seq = IteratedLog(2)
    reg = log_convex_regularization(seq, (0, 12))
    assert reg.vertices == tuple(range(13))
    for n in (0, 3, 11):
        assert reg.enclosure(n, 128) == seq.enclosure(n, 128)


def test_regularization_window_validation():
    with pytest.raises(SequenceError):
        log_convex_regularization(Analytic(), (1, 5))
    with pytest.raises(SequenceError):
        log_convex_regularization(Analytic(), (0, 1))
    reg = log_convex_regularization(Custom(table=[1, 2, 4, 8, 16]), (0, 4))
    with pytest.raises(SequenceError):
        reg.exact(5)


class _GeometricIrrational(WeightSequence):
    """M_n = sqrt(2)**n: log-linear with no exact root form, so hull ties
    cannot be resolved by intervals."""

    def _root(self, n):
        return None

    def _enclosure(self, n, bits):
        from carleman.scalar import iv_pow

        return iv_pow(Interval.point(2), F(n, 2), bits)


def test_regularization_unresolvable_ties_raise_precision_error():
    cfg = ScalarConfig(bits=64, max_doublings=2)
    with pytest.raises(PrecisionError):
        log_convex_regularization(_GeometricIrrational(), (0, 4), cfg)


# -- power substitution ---------------------------------------------------------


def test_power_substitution_values():
    ps = PowerSub(Gevrey(1), 2)
    assert ps.exact(3) == 720
    assert ps.exact(0) == 1
    idp = PowerSub(Gevrey(1), 1)
    for n in range(10):
        assert idp.exact(n) == Gevrey(1).exact(n)
    with pytest.raises(SequenceError):
        PowerSub(Analytic(), 0)


def test_power_substitution_composition():
    base = Custom(rule=lambda n: F(n + 1) ** 2, name="squares")
    once = PowerSub(PowerSub(base, 2), 3)
    direct = PowerSub(base, 6)
    for n in range(8):
        assert once.exact(n) == direct.exact(n)


def test_power_substitution_preserves_increasing():
    base = Custom(rule=lambda n: F(2) ** n, name="dyadic")
    assert is_increasing(base, (0, 10)).ok
    assert is_increasing(PowerSub(base, 3), (0, 6)).ok


def test_derived_power_substitution_examples():
    g = Gevrey(1)
    # p=1 reduces to the derived sequence
    for n in range(1, 6):
        assert derived_power_substitution(g, 1, n, EXACT).fraction() == math.factorial(
            n
        ) * g.exact(n)
    # n=1 gives M'_p for any p
    for p in (1, 2, 3, 5):
        assert derived_power_substitution(g, p, 1, EXACT).fraction() == math.factorial(
            p
        ) * g.exact(p)
    # n=0 convention
    assert derived_power_substitution(g, 4, 0, EXACT).fraction() == 1
    # p=2, n=2: the exponent n**((p-1)n) evaluates to 4 by direct computation
    assert 2 ** ((2 - 1) * 2) == 4
    expected = F(math.factorial(4) * g.exact(4), 4)
    assert derived_power_substitution(g, 2, 2, EXACT).fraction() == expected
    with pytest.raises(SequenceError):
        derived_power_substitution(g, 0, 1)


def test_as_root_memo_hit_still_validates_the_index():
    reg = log_convex_regularization(Custom(table=[1, 8, 2, 64, 3]), (0, 4))
    first = [reg.as_root(n) for n in range(5)]
    assert [reg.as_root(n) for n in range(5)] == first
    assert reg.vertices == (0, 4) and reg.as_root(1) == (F(3), 4)
    assert reg.exact(1) is None  # (M_0**3 M_4)**(1/4), through the memo
    for bad in (-1, 1.0, 2.0, F(1), 5, 9):
        for _ in range(2):
            with pytest.raises(SequenceError):
                reg.as_root(bad)
    g = Gevrey(F(1, 2))
    assert g.as_root(3) == g.as_root(3) == (F(6), 2)
    with pytest.raises(SequenceError):
        g.as_root(3.0)


def test_regularized_refuses_vertices_that_are_not_a_hull():
    seq = Custom(table=[1, 2, 4, 8, 100, 1000])
    for vertices in ((0, 4, 2, 5), (1, 5), (0, 3), (0, 3, 3, 5), (), (0, 5, 6)):
        with pytest.raises(SequenceError):
            Regularized(seq, 5, vertices)
    assert Regularized(seq, 5, [0, 2, 5]).vertices == (0, 2, 5)


def test_bracket_agrees_with_a_linear_scan():
    rng = random.Random(11)
    for _ in range(200):
        n_max = rng.randint(2, 40)
        inner = rng.sample(range(1, n_max), rng.randint(0, n_max - 1))
        vertices = tuple(sorted({0, n_max, *inner}))
        reg = Regularized(Analytic(), n_max, vertices)
        for n in range(n_max + 1):
            a = max(v for v in vertices if v <= n)
            b = min(v for v in vertices if v >= n)
            assert reg._bracket(n) == (a, b), (vertices, n)


def _fraction_power_root(reg, n):
    """The root form of ``reg`` at n as Fraction powers qa**x * qb**y, the
    form that the integer-power kernel replaced."""
    if n in reg.vertices:
        return reg.base.as_root(n)
    a, b = reg._bracket(n)
    (qa, da), (qb, db) = reg.base.as_root(a), reg.base.as_root(b)
    lcm = da * db // math.gcd(da, db)
    return (qa ** ((b - n) * lcm // da) * qb ** ((n - a) * lcm // db), lcm * (b - a))


def test_as_root_equals_the_fraction_power_form():
    rng = random.Random(23)

    def some_vertices(n_max):
        inner = rng.sample(range(1, n_max), rng.randint(0, n_max - 1))
        return tuple(sorted({0, n_max, *inner}))

    regs = []
    for _ in range(60):
        N = rng.randint(2, 24)
        table = [F(rng.randint(1, 4096), rng.randint(1, 4096)) for _ in range(N + 1)]
        regs.append(log_convex_regularization(Custom(table=table), (0, N)))
    # bases whose root forms have degree above 1, on arbitrary vertex sets
    for base in (Gevrey(F(1, 2)), Gevrey(F(2, 3))):
        for _ in range(10):
            N = rng.randint(2, 20)
            regs.append(Regularized(base, N, some_vertices(N)))
    for inner in regs[:30]:
        regs.append(Regularized(inner, inner.n_max, some_vertices(inner.n_max)))
    degrees = set()
    for reg in regs:
        for n in range(reg.n_max + 1):
            got = reg.as_root(n)
            assert got == _fraction_power_root(reg, n), (reg.describe(), n)
            assert type(got[0]) is Fraction
            if n not in reg.vertices:
                degrees.add(reg.base.as_root(reg._bracket(n)[0])[1] > 1)
    assert degrees == {False, True}


def _old_form_or_error(reg, n):
    try:
        return _fraction_power_root(reg, n)
    except SequenceError as exc:
        return ("raised", str(exc))


def test_batched_forms_equal_the_fraction_power_form():
    rng = random.Random(29)

    def some_vertices(n_max):
        inner = rng.sample(range(1, n_max), rng.randint(0, n_max - 1))
        return tuple(sorted({0, n_max, *inner}))

    regs = []
    for table in _hull_tables(rng):
        N = len(table) - 1
        reg = log_convex_regularization(Custom(table=table), (0, N))
        regs += [reg, log_convex_regularization(reg, (0, N))]
        regs.append(Regularized(Custom(table=table), N, some_vertices(N)))
        regs.append(Regularized(reg, N, some_vertices(N)))
    for reg in regs:
        forms = _int_roots(reg, 0, reg.n_max)
        # every base here has a batch, so the batch covers every point
        assert len(forms) == reg.n_max + 1
        for n, (num, den, d) in enumerate(forms):
            assert (Fraction(num, den), d) == _fraction_power_root(reg, n), (reg.describe(), n)
        assert [reg.as_root(n) for n in range(reg.n_max + 1)] == [
            _fraction_power_root(reg, n) for n in range(reg.n_max + 1)
        ]
    # a base batch that ends inside the window: the batch stops at the last
    # segment it covers, and reads past it raise where the old form raises
    short = Regularized(Custom(table=[1, 2, 5, 9, 30]), 8, (0, 3, 8))
    assert len(_int_roots(short, 0, 8)) == 4
    for n in range(9):
        got = _old_form_or_error(short, n)
        try:
            assert short.as_root(n) == got
        except SequenceError as exc:
            assert got == ("raised", str(exc)), n


def test_a_vertex_past_the_base_batch_gets_its_form_from_the_base():
    # the base raises at 2, inside the one segment [0, 4], and has a form at 4
    reg = Regularized(Custom(rule=lambda n: -1 if n == 2 else 5 ** n), 4, (0, 4))
    assert is_log_convex(reg, (1, 3)).outcome == "holds"
    assert [reg.as_root(n) for n in range(5)] == [
        (F(1), 1), (F(5 ** 4), 4), (F(5 ** 8), 4), (F(5 ** 12), 4), (F(5 ** 4), 1)
    ]


def test_a_regularization_with_every_point_a_vertex_reuses_the_base_forms():
    reg = log_convex_regularization(Custom(table=[3, 1, 9, 3, 7, 30]), (0, 5))
    assert reg.vertices != tuple(range(6))
    # the minorant is log-convex with collinear runs kept: all vertices
    again = log_convex_regularization(reg, (0, 5))
    assert again.vertices == tuple(range(6))
    assert all(a is b for a, b in zip(_int_roots(again, 0, 5), _int_roots(reg, 0, 5)))


def _root_or_error(seq, n):
    try:
        return seq.as_root(n)
    except SequenceError:
        return None


def test_every_batch_is_a_prefix_of_the_root_forms():
    table = Custom(table=[1, 2, 5, 9, 30])
    rule = Custom(rule=lambda n: n + 1)
    reg = log_convex_regularization(Custom(table=[3, 1, 9, 3, 7, 30, 2, 5, 8]), (0, 8))
    batched = [
        (Analytic(), 12), (Gevrey(2), 12), (Gevrey(F(2, 3)), 12), (table, 3), (table, 9),
        (PowerSub(table, 2), 6), (PowerSub(Gevrey(F(1, 2)), 3), 8), (PowerSub(reg, 2), 4),
        (reg, 8), (log_convex_regularization(reg, (0, 8)), 8),
        (Regularized(table, 8, (0, 3, 8)), 8), (Regularized(table, 8, (0, 1, 2, 8)), 8),
        (Regularized(Gevrey(F(1, 2)), 9, (0, 4, 9)), 9),
    ]
    # rules, iterated logs and shifted views get their batches from _root too
    derived = [
        (rule, 4), (PowerSub(rule, 2), 4), (IteratedLog(1), 4),
        (Regularized(IteratedLog(1), 4, (0, 4)), 4), (_ShiftedView(IteratedLog(1), 1), 4),
    ]
    assert [len(_int_roots(seq, 0, h)) for seq, h in derived] == [5, 5, 1, 1, 0]
    for seq, h in batched + derived:
        forms = _int_roots(seq, 0, h)
        assert len(forms) <= h + 1
        for n, (num, den, d) in enumerate(forms):
            assert (F(num, den), d) == seq.as_root(n), (seq.describe(), n)
        # a short batch stops just before the first index without a form
        if len(forms) <= h:
            assert _root_or_error(seq, len(forms)) is None, seq.describe()


# -- the integer hull sweep against compare_products ---------------------------------


def _reference_hull(seq, n_max):
    """Monotone-chain lower hull deciding every turn with compare_products."""
    stack = []
    for k in range(n_max + 1):
        while len(stack) >= 2:
            i, j = stack[-2], stack[-1]
            if compare_products([(seq, i, k - j), (seq, k, j - i)], [(seq, j, k - i)]) >= 0:
                break
            stack.pop()
        stack.append(k)
    return tuple(stack)


def _hull_tables(rng):
    tables = []
    for N in (2, 3, 8, 17, 40, 64):
        tables.append([1] + [F(rng.randint(1, 4096), rng.randint(1, 4096)) for _ in range(N)])
        # log-convex: products of nondecreasing ratios, with repeats (collinear runs)
        ratios = sorted(F(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(N))
        table = [F(rng.randint(1, 99), rng.randint(1, 99))]
        for r in ratios:
            table.append(table[-1] * r)
        tables.append(table)
        tables.append([F(3, 7) ** n for n in range(N + 1)])  # geometric: every turn a tie
        tables.append([rng.choice((1, 2, 4, 8)) for _ in range(N + 1)])  # many ties
    return tables


def _counting(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_hull_vertices_match_the_compare_products_reference(monkeypatch):
    from carleman import transforms

    rng = random.Random(12)
    tables = [Custom(table=t) for t in _hull_tables(rng)]
    seqs = [(t, t.length - 1) for t in tables]
    seqs += [(log_convex_regularization(t, (0, n)), n) for t, n in seqs]
    seqs += [(Gevrey(F(1, 2)), 30), (Gevrey(F(2, 3)), 30), (PowerSub(Gevrey(F(2, 3)), 2), 20)]
    # tables[20] and tables[21] hold 65 points, random and log-convex
    seqs += [(Analytic(), 20), (Gevrey(2), 20), (PowerSub(tables[20], 2), 32)]
    seqs += [(PowerSub(tables[20], 3), 21), (PowerSub(tables[21], 2), 32)]
    seqs += [(PowerSub(log_convex_regularization(tables[20], (0, 64)), 2), 32)]
    calls = _counting(monkeypatch, transforms, "compare_products")
    for seq, n_max in seqs:
        expected = _reference_hull(seq, n_max)
        assert log_convex_regularization(seq, (0, n_max)).vertices == expected, seq.describe()
    # a rule's batch derives from its forms too
    rule = Custom(rule=lambda n: F(n * n % 7 + 1, n % 5 + 1))
    assert log_convex_regularization(rule, (0, 20)).vertices == _reference_hull(rule, 20)
    # every family here has a batch that covers the window: no turn went to
    # compare_products
    assert calls == []
    # a sequence without exact forms past M_0: every turn goes to it
    seq = IteratedLog(1)
    assert log_convex_regularization(seq, (0, 20)).vertices == _reference_hull(seq, 20)
    assert len(calls) >= 19


def test_hull_without_root_forms_falls_back_to_compare_products(monkeypatch):
    from carleman import transforms

    reg = log_convex_regularization(IteratedLog(2), (0, 10))
    calls = _counting(monkeypatch, transforms, "compare_products")
    assert log_convex_regularization(reg, (0, 10)).vertices == _reference_hull(reg, 10)
    assert len(calls) >= 9


def test_hull_reads_raise_at_the_reference_index():
    cases = [
        (Custom(table=[1]), 2),  # indices 1 and 2 both past the table
        (Custom(table=[1, 2, 5]), 6),
        (Custom(rule=lambda n: 1 if n in (0, 3) else -n), 5),  # nonpositive at 1, 2 and 4
        (Custom(rule=lambda n: 1 if n < 4 else 0), 6),
        # a batch that ends inside the window, at the base's table end
        (Regularized(Custom(table=[1, 2, 5, 9, 30]), 8, (0, 3, 8)), 8),
        (Regularized(Custom(table=[1, 2, 5]), 6, (0, 1, 6)), 6),
        (PowerSub(Custom(table=[1, 2, 5, 9, 30]), 2), 4),  # base index 6 past the table
        (PowerSub(Custom(rule=lambda n: 1 if n < 5 else -n), 2), 5),  # nonpositive at 6
    ]
    for seq, n_max in cases:
        with pytest.raises(SequenceError) as want:
            _reference_hull(seq, n_max)
        with pytest.raises(SequenceError) as got:
            log_convex_regularization(seq, (0, n_max))
        assert str(got.value) == str(want.value)


# -- convexity signs shared by the base sweep and the hull ---------------------------


def test_a_hull_after_the_sweep_decides_no_convexity_sign_again(monkeypatch):
    from carleman import transforms

    rng = random.Random(25)
    N = 32
    regs = []
    for _ in range(6):
        table = [1] + [F(rng.randint(1, 4096), rng.randint(1, 4096)) for _ in range(N)]
        regs.append(log_convex_regularization(Custom(table=table), (0, N)))
    regs.append(log_convex_regularization(Custom(table=[F(3, 7) ** n for n in range(N + 1)]), (0, N)))
    kernel = _counting(monkeypatch, transforms, "_three_point_sign")
    turns = _counting(monkeypatch, transforms, "_turn_sign")
    for reg in regs:
        assert is_log_convex(reg, (1, N - 1)).ok
        del kernel[:], turns[:]
        # every point of a log-convex sequence is kept, after one turn each
        assert log_convex_regularization(reg, (0, N)).vertices == tuple(range(N + 1))
        assert kernel == [] and len(turns) == N - 1


def _outcome_of(call):
    """The call's result, or the type and text of what it raised."""
    try:
        return call()
    except Exception as exc:  # the outcomes compared include the errors
        return type(exc), str(exc)


def _sign_sharing_cases():
    rng = random.Random(26)
    cases = []
    for N in (3, 8, 20, 40):
        random_table = [1] + [F(rng.randint(1, 4096), rng.randint(1, 4096)) for _ in range(N)]
        ratios = sorted(F(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(N))
        convex_table = [F(rng.randint(1, 99), rng.randint(1, 99))]
        for r in ratios:
            convex_table.append(convex_table[-1] * r)
        for t in (random_table, convex_table, [F(3, 7) ** n for n in range(N + 1)]):
            cases.append((lambda t=t: Custom(table=t), N))
            cases.append((lambda t=t, N=N: log_convex_regularization(Custom(table=t), (0, N)), N))
    # a rule whose sweep fails early, having asked its batch for few points,
    # and one whose batch stops for good inside the window
    cases.append((lambda: Custom(rule=lambda n: F(n * n % 7 + 1, n % 5 + 1)), 40))
    cases.append((lambda: Custom(rule=lambda n: 2 ** (n * n) if n < 12 else -1), 20))
    return cases


def test_sweep_and_hull_decide_alike_in_either_order_and_on_a_fresh_sequence():
    verdicts = set()
    for make, N in _sign_sharing_cases():
        def hull(seq):
            return _outcome_of(lambda: log_convex_regularization(seq, (0, N)).vertices)

        def sweep(seq):
            return _outcome_of(lambda: is_log_convex(seq, (1, N - 1)))

        fresh = (hull(make()), sweep(make()))
        seq = make()
        swept = sweep(seq)
        sweep_first = (hull(seq), swept)
        seq = make()
        hull_first = (hull(seq), sweep(seq))
        assert sweep_first == hull_first == fresh, (seq.describe(), N)
        verdicts.add(getattr(swept, "outcome", "raises"))
    assert verdicts == {"holds", "fails", "raises"}


def test_the_traced_hull_turn_count_of_the_default_run_at_seed_3(monkeypatch):
    from carleman import transforms
    from carleman.spec import RunConfig
    from carleman.verify import run_checks

    turns = _counting(monkeypatch, transforms, "_turn_sign")
    report = run_checks(RunConfig(seed=3), only=["regularization-laws"])
    assert [r.verdict for r in report.records] == ["holds"]
    # the count `bench/run.py --workload verify-suite --seed 3 --trace 1`
    # reports as transforms.hull_turns
    assert len(turns) == 88592
