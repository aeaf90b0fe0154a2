"""Quasianalyticity, derivation closure, and inclusion criteria."""

from fractions import Fraction

import pytest

from carleman import criteria
from carleman.criteria import (
    dc_partial_sum,
    derivation_closure_estimate,
    inclusion_estimate,
    quasianalytic_verdict,
)
from carleman.scalar import ScalarConfig, display_float
from carleman.seqcore import (
    Analytic,
    Custom,
    Gevrey,
    IteratedLog,
    PowerSub,
    SequenceError,
)

F = Fraction
EXACT = ScalarConfig(mode="exact")


def harmonic(n):
    return sum(F(1, i) for i in range(1, n + 1))


def test_dc_partial_sum_analytic_is_harmonic():
    for N in (0, 3, 10):
        assert dc_partial_sum(Analytic(), N, EXACT).fraction() == harmonic(N + 1)


def test_dc_partial_sum_gevrey_term_shape_and_bound():
    # terms are exactly 1/(n+1)^2, so partial sums telescope below 2
    g = Gevrey(1)
    brute = sum(F(1, (n + 1) ** 2) for n in range(33))
    assert dc_partial_sum(g, 32, EXACT).fraction() == brute
    for N in (1, 8, 64, 256):
        s = dc_partial_sum(g, N, EXACT).fraction()
        assert s < 2
        # telescoping oracle: 1/(n+1)^2 <= 1/(n(n+1)) gives the tail < 1/N
        assert s < 1 + sum(F(1, n * (n + 1)) for n in range(1, N + 2))


def test_dc_partial_sum_nondecreasing_in_N():
    for seq in (Analytic(), Gevrey(1), IteratedLog(2)):
        prev = None
        for N in (1, 4, 16, 64):
            cur = dc_partial_sum(seq, N, ScalarConfig(bits=128)).interval()
            if prev is not None:
                assert cur.hi >= prev.lo
                assert cur.midpoint >= prev.midpoint
            prev = cur


def test_dc_partial_sum_iterated_log_positive_increasing():
    vals = [dc_partial_sum(IteratedLog(2), N, ScalarConfig(bits=128)).interval() for N in (8, 32, 64)]
    assert all(v.lo > 0 for v in vals)
    assert vals[0].hi < vals[2].hi


def test_quasianalytic_family_verdicts():
    assert quasianalytic_verdict(Analytic()).ok
    assert quasianalytic_verdict(Analytic()).scope == "global"
    assert quasianalytic_verdict(Gevrey(1)).outcome == "fails"
    assert quasianalytic_verdict(Gevrey(F(1, 2))).outcome == "fails"
    assert quasianalytic_verdict(Gevrey(0)).ok
    for k in (1, 2, 3):
        assert quasianalytic_verdict(IteratedLog(k)).ok
    assert quasianalytic_verdict(PowerSub(IteratedLog(1), 2)).outcome == "fails"
    assert quasianalytic_verdict(PowerSub(IteratedLog(2), 3)).ok
    assert quasianalytic_verdict(PowerSub(IteratedLog(2), 3)).scope == "global"
    # nested substitutions flatten
    nested = PowerSub(PowerSub(IteratedLog(1), 2), 3)
    assert quasianalytic_verdict(nested).outcome == "fails"


def test_quasianalytic_powersub_identity_matches_base():
    for base in (Analytic(), Gevrey(1), IteratedLog(1), IteratedLog(2)):
        assert (
            quasianalytic_verdict(PowerSub(base, 1)).outcome
            == quasianalytic_verdict(base).outcome
        )


def test_quasianalytic_custom_is_inconclusive_with_trend():
    seq = Custom(rule=lambda n: F(n + 1), name="linear")
    v = quasianalytic_verdict(seq)
    assert v.outcome == "inconclusive"
    assert v.trend is not None and len(v.trend.last) >= 2
    # short finite tables stay in range
    short = Custom(table=[1, 2, 4, 8, 16, 32])
    v2 = quasianalytic_verdict(short)
    assert v2.outcome == "inconclusive"


def test_derivation_closure_analytic():
    est, verdict = derivation_closure_estimate(Analytic(), (1, 16), EXACT)
    assert est.fraction() == 1
    assert verdict.ok and verdict.scope == "global"


def test_derivation_closure_gevrey_max_at_n1():
    est, verdict = derivation_closure_estimate(Gevrey(1), (1, 32))
    enc = est.interval()
    assert enc.contains(F(2)) and enc.width < F(1, 2 ** 100)
    assert verdict.ok
    # sweep oracle: (n+1)**(1/n) < 2 for n >= 2
    for n in range(2, 33):
        assert F(n + 1) < F(2) ** n


def test_derivation_closure_custom_squared_exponent():
    seq = Custom(rule=lambda n: F(2) ** (n * n), name="gauss-like")
    est, verdict = derivation_closure_estimate(seq, (1, 12))
    enc = est.interval()
    assert enc.contains(F(8)) and enc.width < F(1, 2 ** 64)
    assert verdict.outcome == "inconclusive"
    # brute-force oracle: ratio root is 2**(2 + 1/n), maximal at n=1
    for n in range(1, 13):
        ratio = seq.exact(n + 1) / seq.exact(n)
        assert ratio == F(2) ** (2 * n + 1)


def test_only_inclusion_notes_monotone_growth():
    # both sweeps grow across the window: the closure's ratio roots are
    # 2**(3n + 3 + 1/n), the inclusion's roots over constant weights 2**(n*n)
    seq = Custom(rule=lambda n: F(2) ** (n ** 3), name="cubic")
    _, closure = derivation_closure_estimate(seq, (1, 8))
    _, inclusion = inclusion_estimate(seq, Analytic(), (1, 8))
    assert closure.outcome == inclusion.outcome == "inconclusive"
    assert [v for _, v in closure.trend.last] == sorted(v for _, v in closure.trend.last)
    assert "monotone growth" not in closure.trend.note
    assert inclusion.trend.note.endswith("; monotone growth across the window")


def test_inclusion_identity():
    g = Gevrey(1)
    est, verdict = inclusion_estimate(g, g, (1, 16), EXACT)
    assert est.fraction() == 1
    assert verdict.ok and verdict.scope == "global"


def test_inclusion_analytic_in_gevrey():
    est, verdict = inclusion_estimate(Analytic(), Gevrey(1), (1, 24))
    enc = est.interval()
    assert enc.contains(F(1)) and enc.width < F(1, 2 ** 100)
    assert verdict.ok and verdict.scope == "global"
    # sweep oracle: (1/n!)**(1/n) <= 1 with max 1 at n=1
    assert Gevrey(1).exact(1) == 1


def test_inclusion_gevrey_in_analytic_inconclusive_growth():
    est, verdict = inclusion_estimate(Gevrey(1), Analytic(), (1, 16))
    assert verdict.outcome == "inconclusive"
    assert "monotone growth" in verdict.trend.note
    assert est.interval().lo > 2  # (16!)^(1/16) is already large


def test_inclusion_submultiplicative_across_windows():
    window = (1, 12)
    trips = [
        (Analytic(), Gevrey(1), Gevrey(2)),
        (Gevrey(1), Gevrey(2), Gevrey(3)),
    ]
    for M, Nseq, P in trips:
        mn = inclusion_estimate(M, Nseq, window)[0].interval()
        np_ = inclusion_estimate(Nseq, P, window)[0].interval()
        mp = inclusion_estimate(M, P, window)[0].interval()
        assert mp.lo <= mn.hi * np_.hi


def test_window_validation():
    with pytest.raises(SequenceError):
        derivation_closure_estimate(Analytic(), (0, 4))
    with pytest.raises(SequenceError):
        inclusion_estimate(Analytic(), Analytic(), (3, 2))


@pytest.mark.parametrize("which", ["closure", "inclusion"])
def test_interval_estimates_sweep_each_index_once(which, monkeypatch):
    real = criteria._root_of_ratio
    calls = []

    def spy(num, den, n, root, bits):
        calls.append((n, bits))
        return real(num, den, n, root, bits)

    monkeypatch.setattr(criteria, "_root_of_ratio", spy)
    cfg = ScalarConfig(mode="interval", bits=128)
    a, b = 1, 12
    seq = IteratedLog(2)
    if which == "closure":
        est, _ = derivation_closure_estimate(seq, (a, b), cfg)
        num, den = criteria._ShiftedView(seq, 1), seq
    else:
        other = PowerSub(IteratedLog(1), 2)
        est, _ = inclusion_estimate(seq, other, (a, b), cfg)
        num, den = seq, other
    assert sorted(calls) == [(n, cfg.bits) for n in range(a, b + 1)]
    # the endpoints of the max swept again, rounded as make_scalar rounds them
    best = criteria._sweep_roots(num, den, (a, b), cfg.bits)[0].outward(cfg.bits)
    assert (est.lo, est.hi) == (best.lo, best.hi)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_quasianalytic_verdict_reads_only_inside_a_custom_table(p):
    # the trend's last partial sum reads M_{p(N+1)}; a table of any length
    # gives an Inconclusive over a window its partial sums can read
    for length in range(1, 17):
        base = Custom(table=[F(2) ** (n * n) for n in range(length)])
        seq = base if p == 1 else PowerSub(base, p)
        v = quasianalytic_verdict(seq)
        assert v.outcome == "inconclusive", (length, p)
        top = (length - 1) // p - 1
        assert v.window == (0, max(0, top))
        assert [m for m, _ in v.trend.last] == sorted(
            {m for m in (max(1, top // 4), max(2, top // 2), top) if 0 <= m <= top}
        )


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_the_trend_reads_its_marks_from_one_partial_sum_pass(bits, monkeypatch):
    passes = []
    real = criteria._partial_sums
    monkeypatch.setattr(
        criteria, "_partial_sums", lambda seq, N: passes.append(N) or real(seq, N)
    )
    cases = {
        Custom(rule=lambda n: F(n + 1), name="linear"):
            "last (10, 2.10321), (20, 2.69081), (40, 3.32674); growth 0.917452",
        IteratedLog(2): "last (10, 2.04228), (20, 2.4422), (40, 2.84592); growth 0.58244",
    }
    cfg = ScalarConfig(bits=bits)
    for seq, text in cases.items():
        passes.clear()
        trend = criteria._dc_trend(seq, 40, cfg)
        assert passes == [40]
        assert str(trend) == text + "; partial-sum slope per log N"
        # each mark is the partial sum up to it, as a pass of its own gives it
        marks = tuple((m, display_float(dc_partial_sum(seq, m, cfg))) for m in (10, 20, 40))
        assert trend.last == marks


def test_running_partial_sums_stay_near_the_working_precision():
    import mpmath

    seq, N, bits = IteratedLog(1), 200, 128
    limit = bits + criteria._SUM_GUARD_BITS + 8
    for m, (_, enclosure) in enumerate(criteria._partial_sums(seq, N)):
        total = enclosure(bits)
        sizes = [x.bit_length() for q in (total.lo, total.hi) for x in (q.numerator, q.denominator)]
        assert max(sizes) <= limit, (m, sizes)
    s = seq.shift
    with mpmath.workprec(4 * bits):
        # M_n / M_{n+1} = L(s+n)**(s+n) / L(s+n+1)**(s+n+1) with L = log
        log_L = [mpmath.log(mpmath.log(mpmath.mpf(s + n))) for n in range(N + 2)]
        ref = mpmath.fsum(
            mpmath.exp((s + n) * log_L[n] - (s + n + 1) * log_L[n + 1]) / (n + 1)
            for n in range(N + 1)
        )
    assert total.contains(F(ref.man) * F(2) ** ref.exp)
