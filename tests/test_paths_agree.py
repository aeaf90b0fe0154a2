"""The exact and interval paths decide alike, and no verdict depends on the
starting precision.

Every comparison has two implementations: the integer kernels on exact
root forms (``_three_point_sign``, the exact branch of ``compare_products``
and the convexity signs that a sweep and a hull share) and the interval
branch of ``compare_products``.  Two views of a table send the same values
down the other path: ``NoRoot`` gives no root form, so every decision goes
through intervals, and ``Cut`` gives forms only below an index, so the
batch stops inside the window.  The tables are drawn as the verify suite
draws them.
"""

import random
import re
from fractions import Fraction

from carleman import scalar
from carleman.criteria import derivation_closure_estimate, inclusion_estimate
from carleman.scalar import Interval, PrecisionError, ScalarConfig
from carleman.seqcore import (
    Custom,
    Gevrey,
    IteratedLog,
    PowerSub,
    WeightSequence,
    compare_products,
    is_increasing,
    is_log_convex,
)
from carleman.transforms import log_convex_regularization
from carleman.verify import _random_table

N = 20  # every table holds M_0, ..., M_N


class NoRoot(WeightSequence):
    """The values of a table with no root form; each enclosure is the value
    itself, as a point."""

    def __init__(self, table):
        super().__init__()
        self.table = table

    def _root(self, n):
        return None

    def _enclosure(self, n, bits):
        return Interval.point(self.table[n])


class Cut(NoRoot):
    """The values of a table with root forms only below ``j``."""

    def __init__(self, table, j):
        super().__init__(table)
        self.j = j

    def _root(self, n):
        return (self.table[n], 1) if n < self.j else None


def _tables(seed, count):
    """(kind, table) pairs: random tables, log-convex ones (running products
    of sorted random ratios) and geometric ones, where every triple is a tie."""
    rng = random.Random(seed)
    for _ in range(count):
        yield "random", _random_table(rng, N)
        products = [Fraction(1)]
        for r in sorted(_random_table(rng, N)[1:]):
            products.append(products[-1] * r)
        yield "log-convex", products
        r = _random_table(rng, 1)[1]
        yield "geometric", [r ** n for n in range(N + 1)]


def _decision(verdict):
    return verdict.outcome, None if verdict.witness is None else verdict.witness.index


def _verdicts(seq, cfg):
    """Both predicates over the table's window, and the derived sweep."""
    return [
        is_increasing(seq, (0, N - 1), cfg),
        is_log_convex(seq, (1, N - 1), "base", cfg),
        is_log_convex(seq, (1, N - 1), "derived", cfg),
    ]


def _predicates(seq, cfg):
    return [_decision(v) for v in _verdicts(seq, cfg)]


def _contains(iv, form):
    """``iv`` holds the value q**(1/d) of the root form (q, d)."""
    q, d = form
    return iv.lo ** d <= q <= iv.hi ** d


def test_views_decide_as_the_exact_sequence():
    cfg = ScalarConfig(bits=64)
    kinds = set()
    for i, (kind, table) in enumerate(_tables(1, 60)):
        exact = Custom(table=table)
        want = _predicates(exact, cfg)
        hull = log_convex_regularization(exact, (0, N), cfg).vertices
        for view in (NoRoot(table), Cut(table, 2 + i % (N - 2))):
            assert _predicates(view, cfg) == want, (kind, i, type(view).__name__)
            assert log_convex_regularization(view, (0, N), cfg).vertices == hull, (kind, i)
        kinds.add((kind, want[1][0]))
    # the draws reach both verdicts of the base sweep, and a tie on every triple
    assert {("random", "fails"), ("log-convex", "holds"), ("geometric", "holds")} <= kinds


def _exact_sign(seq, which, n):
    """The exact sign that a predicate's sweep decides at ``n``."""
    if which == 0:
        return compare_products([(seq, n, 1)], [(seq, n + 1, 1)])
    ls, rs = (1, 1) if which == 1 else (n, n + 1)
    return compare_products(
        [(seq, n, 2)], [(seq, n - 1, 1), (seq, n + 1, 1)], lhs_scale=ls, rhs_scale=rs
    )


def test_regularizations_of_views_enclose_the_exact_values():
    # the interpolated points of a view's regularization have no form, and
    # three of them on one segment are an exact tie that no enclosure
    # resolves, so a short ladder keeps those sweeps cheap
    cfg = ScalarConfig(bits=128, max_doublings=2)
    ties = 0
    for i, (kind, table) in enumerate(_tables(2, 15)):
        exact = log_convex_regularization(Custom(table=table), (0, N), cfg)
        want = _verdicts(exact, cfg)
        for view in (NoRoot(table), Cut(table, 2 + i % (N - 2))):
            reg = log_convex_regularization(view, (0, N), cfg)
            for n in range(N + 1):
                assert _contains(reg.enclosure(n, 128), exact.as_root(n)), (kind, i, n)
            for which, (w, got) in enumerate(zip(want, _verdicts(reg, cfg))):
                if _decision(got) == _decision(w):
                    continue
                # the interval side may stop at an exact tie, and only there
                assert got.outcome == "inconclusive", (kind, i, which)
                n = int(re.search(r"at n=(\d+) ", got.trend.note).group(1))
                assert _exact_sign(exact, which, n) == 0, (kind, i, which, n)
                assert w.witness is None or w.witness.index > n, (kind, i, which)
                ties += 1
    assert ties


# families without exact forms past M_0, among them shifts small enough to
# fail the predicates, and exact ones with rational roots
FAMILIES = {
    "iterlog(1)": lambda cfg: IteratedLog(1, cfg=cfg),
    "iterlog(2)": lambda cfg: IteratedLog(2, cfg=cfg),
    "iterlog(3)": lambda cfg: IteratedLog(3, cfg=cfg),
    "iterlog(1,2)": lambda cfg: IteratedLog(1, 2, cfg),
    "iterlog(2,20)": lambda cfg: IteratedLog(2, 20, cfg),
    "iterlog(2,4)": lambda cfg: IteratedLog(2, 4, cfg),
    "iterlog(3,16)": lambda cfg: IteratedLog(3, 16, cfg),
    "powersub(iterlog(1),2)": lambda cfg: PowerSub(IteratedLog(1, cfg=cfg), 2),
    "powersub(iterlog(2),3)": lambda cfg: PowerSub(IteratedLog(2, cfg=cfg), 3),
    "gevrey(3/2)": lambda cfg: Gevrey(Fraction(3, 2)),
    "gevrey(1/3)": lambda cfg: Gevrey(Fraction(1, 3)),
}
STARTS = (8, 16, 32, 256)
W = 10


def _at_start(make, bits):
    """The verdicts of one family from a ladder that starts at ``bits``, and
    the enclosures it reports there."""
    cfg = ScalarConfig(bits=bits)
    seq = make(cfg)
    window = (1, W)
    decided = [
        _decision(is_increasing(seq, (0, W), cfg)),
        _decision(is_log_convex(seq, window, "base", cfg)),
        _decision(is_log_convex(seq, window, "derived", cfg)),
    ]
    try:
        decided.append(log_convex_regularization(seq, (0, W), cfg).vertices)
    except PrecisionError:
        decided.append("unresolved")
    closure, closure_verdict = derivation_closure_estimate(seq, window, cfg)
    inclusion, inclusion_verdict = inclusion_estimate(seq, Gevrey(1), window, cfg)
    decided += [_decision(closure_verdict), _decision(inclusion_verdict)]
    enclosures = [closure.interval(), inclusion.interval()]
    enclosures += [seq.enclosure(n, bits) for n in range(W + 1)]
    return decided, enclosures


def test_verdicts_do_not_depend_on_the_starting_precision(monkeypatch):
    ladders = []
    refine = scalar.refine

    def spy(decide, cfg):
        rungs = []

        def counted(bits):
            rungs.append(bits)
            return decide(bits)

        result = refine(counted, cfg)
        ladders.append((len(rungs), cfg.max_doublings + 1, result))
        return result

    monkeypatch.setattr(scalar, "refine", spy)
    outcomes = set()
    for name, make in FAMILIES.items():
        runs = [_at_start(make, bits) for bits in STARTS]
        for bits, (decided, enclosures) in zip(STARTS[1:], runs[1:]):
            assert decided == runs[0][0], (name, bits)
            for j, (a, b) in enumerate(zip(runs[0][1], enclosures)):
                assert a.overlaps(b), (name, bits, j)
        outcomes |= {d[0] for d in runs[0][0] if isinstance(d[0], str)}
    assert outcomes == {"holds", "fails", "inconclusive"}
    # some decision climbed past its first rung and still resolved
    assert any(used > 1 and result is not None for used, _, result in ladders)
    # two sequence objects of the same values tie on intervals: the ladder
    # runs to its cap and gives up
    ladders.clear()
    same = compare_products(
        [(IteratedLog(1), 5, 1)], [(PowerSub(IteratedLog(1), 1), 5, 1)], ScalarConfig(bits=64)
    )
    assert same is None
    assert ladders == [(7, 7, None)]
