"""The certified verification suite: one check per quantitative claim the
toolkit implements, runnable as a batch with a deterministic report.  The
run's configuration, its records and reports and their writers live in
``spec``; this module keeps the check registry, the checks and
``run_checks``.

Each check returns its Verdict, or a (Verdict, Interval) pair whose
enclosure the report prints.  Sweep checks start their refinement ladder
at a moderate mantissa size and escalate on unresolved comparisons, so the
configured precision is an accuracy knob for reported enclosures, never a
soundness knob.
"""

from __future__ import annotations

import math
import random
import time
from contextvars import ContextVar
from dataclasses import replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .bang import (
    BangFunction,
    GateError,
    bang_derivative,
    bang_envelope_check,
    bang_lower_bound_certify,
    cp_bound_check,
    cp_derivative,
    induced_f_derivative,
)
from .comb import (
    b_coefficient_bound_check,
    composition_sum_oracle,
    lemma1_check,
    lemma2_check,
    log_power_coefficients,
    root_series_coefficients,
    stirling_factorial_bounds_check,
    stirling_sweep,
    taylor_remainder_reconstruct,
)
from .criteria import quasianalytic_verdict
from .scalar import Interval, PrecisionError, _int_fraction, decimal_str, display_float
from .seqcore import (
    Analytic,
    Custom,
    Gevrey,
    IteratedLog,
    PowerSub,
    Trend,
    Verdict,
    WeightSequence,
    Witness,
    _int_roots,
    is_log_convex,
)
from .spec import Report, RunConfig, _mini_report, _record, parse_sequence_spec
from .transforms import log_convex_regularization


# -- the check registry ------------------------------------------------------------


# a check's Verdict, with the enclosure its report row prints, if any
CheckOutcome = Union[Verdict, Tuple[Verdict, Interval]]
CheckFn = Callable[[RunConfig], CheckOutcome]
_REGISTRY: List[Tuple[str, str, CheckFn]] = []


def _check(check_id: str, anchor: str):
    def deco(fn: CheckFn) -> CheckFn:
        _REGISTRY.append((check_id, anchor, fn))
        return fn

    return deco


def _unit_grid(g: int) -> List[Fraction]:
    """g equally spaced points of [-1, 1], endpoints included."""
    return [Fraction(-1) + Fraction(2 * i, g - 1) for i in range(g)]


# -- series and inequality checks ------------------------------------------------


@_check(
    "corollary-composition-equality",
    "sum over compositions of 1/(i1*...*ik) equals the series coefficient c[k,n]",
)
def _corollary(config: RunConfig) -> CheckOutcome:
    kmax, nmax = config.corollary_k_max, config.corollary_n_max
    for k in range(1, kmax + 1):
        series = log_power_coefficients(k, nmax)
        for n in range(k, nmax + 1):
            if series.coeff(n) != composition_sum_oracle(k, n):
                return Verdict.fails((1, nmax), Witness(n, (f"k={k}",)))
    return Verdict.holds((1, nmax))


@_check("lemma1-coefficient-bound", "c[k,n] <= (2e)**n * k!/n**k")
def _lemma1(config: RunConfig) -> CheckOutcome:
    return lemma1_check(config.k_max, config.n_max, config.sweep_config())


@_check("a-coefficient-bound", "|a_i| <= 1/i for the (1+u)**(1/p) coefficients")
def _a_bound(config: RunConfig) -> CheckOutcome:
    nmax = config.n_max
    for p in config.p_set:
        series = root_series_coefficients(p, nmax)
        for i in range(1, nmax + 1):
            if abs(series.coeff(i)) > Fraction(1, i):
                return Verdict.fails((1, nmax), Witness(i, (f"p={p}",)))
    return Verdict.holds((1, nmax))


@_check("b-coefficient-bound", "|b_n| <= (2e)**n / n**k")
def _b_bound(config: RunConfig) -> CheckOutcome:
    for p in config.p_set:
        v = b_coefficient_bound_check(p, config.b_k_max, config.b_n_max, config.sweep_config())
        if not v.ok:
            return v
    return Verdict.holds((1, config.b_n_max))


@_check(
    "lemma2-diagonal-derivative-bound",
    "|alpha_k^(n)(x,x)| <= (2e)**n * n**(n-k) * x**(-(pn-k)/p)",
)
def _lemma2(config: RunConfig) -> CheckOutcome:
    return lemma2_check(config.p_set, config.lemma2_n_max, config.x_grid, config.sweep_config())


@_check("stirling-reciprocal-factorial", "1/(pn-k)! <= e**(pn) / n**(pn-k)")
def _stirling(config: RunConfig) -> CheckOutcome:
    return stirling_sweep(config.p_set, config.stirling_n_max, config.sweep_config())


@_check(
    "stirling-two-sided-factorial",
    "sqrt(2 pi n) (n/e)**n < n! < e sqrt(n) (n/e)**n for n >= 2",
)
def _stirling_two_sided(config: RunConfig) -> CheckOutcome:
    return stirling_factorial_bounds_check(config.stirling_n_max, config.sweep_config())


# -- extremal-series checks --------------------------------------------------------

# The parsed sequences of the current ``run_checks`` call, by spec.  The five
# bang checks then build their series on one sequence object and share its
# memo tables in ``bang``; the call drops the dict when it returns, and with
# it the sequences and their tables.
_RUN_SEQUENCES: ContextVar[Dict[str, WeightSequence]] = ContextVar("run_sequences")


def _build_bang(
    config: RunConfig, p: int, max_order: int, window: Tuple[int, int]
) -> Union[BangFunction, Verdict]:
    """The extremal series of ``config.bang_seq``, or the check's Verdict
    over ``window`` when its construction gate refuses the sequence: Fails
    when the gate fails, Inconclusive when it stays unresolved.  A malformed
    spec or a refused parameter is not a gate outcome; its ``ConfigError``
    or ``SequenceError`` propagates.  The spec is parsed once per
    ``run_checks`` call, so every series of the run has one sequence."""
    seqs = _RUN_SEQUENCES.get()
    spec = config.bang_seq
    if spec not in seqs:
        seqs[spec] = parse_sequence_spec(spec)
    seq = seqs[spec]
    try:
        return BangFunction(
            seq,
            p=p,
            max_order=max_order,
            tail_target=config.tail_target,
            cfg=config.sweep_config(),
        )
    except PrecisionError as exc:
        return Verdict.inconclusive(window, Trend(note=f"construction gate: {exc}"))
    except GateError as exc:
        return Verdict.fails(window, Witness(0, (f"construction gate: {exc}",)))


def _bang_lower(config: RunConfig, p: int, nmax: int) -> CheckOutcome:
    """|F^(pn)(0)| >= M'_pn for n <= nmax, with the top-order enclosure."""
    B = _build_bang(config, p, p * nmax, (0, nmax))
    if isinstance(B, Verdict):
        return B
    cfg = config.sweep_config()
    for n in range(nmax + 1):
        v = bang_lower_bound_certify(B, n, cfg)
        if not v.ok:
            return v
    top = abs(bang_derivative(B, p * nmax, 0, cfg).interval())
    return Verdict.holds((0, nmax)), top


@_check("bang-cos-lower-bound", "|F^(2n)(0)| >= M'_2n for the cosine series")
def _bang_cos_lower(config: RunConfig) -> CheckOutcome:
    return _bang_lower(config, 2, config.bang_cos_n_max)


@_check("bang-cp-lower-bound", "|F^(pn)(0)| >= M'_pn for the C_p series")
def _bang_cp_lower(config: RunConfig) -> CheckOutcome:
    return _bang_lower(config, config.bang_cp_p, config.bang_cp_n_max)


@_check("bang-tail-certificate", "relative truncation tail <= target (sharper if M is log-convex)")
def _bang_tail(config: RunConfig) -> CheckOutcome:
    orders = (
        (2, 2 * config.bang_cos_n_max),
        (config.bang_cp_p, config.bang_cp_p * config.bang_cp_n_max),
    )
    worst = Fraction(0)
    for p, max_order in orders:
        B = _build_bang(config, p, max_order, (0, max_order))
        if isinstance(B, Verdict):
            return B
        for n in range(max_order + 1):
            margin = B.relative_tail(n)
            worst = max(worst, margin)
            if margin > config.tail_target:
                return Verdict.fails((0, max_order), Witness(n, (f"p={p}",)))
    return Verdict.holds((0, max(o for _, o in orders))), Interval.point(worst)


@_check("bang-envelope", "|F^(n)(xi)| <= 2**(n+1) * M'_n on [-1, 1]")
def _bang_envelope(config: RunConfig) -> CheckOutcome:
    nmax = config.envelope_n_max
    B = _build_bang(config, 2, max(nmax, 2 * config.bang_cos_n_max), (0, nmax))
    if isinstance(B, Verdict):
        return B
    grid = _unit_grid(config.envelope_grid)
    return bang_envelope_check(B, nmax, grid, config.sweep_config())


@_check("cp-derivative-bound", "|C_p^(n)(x)| <= e on [-1, 1] for n <= 4p")
def _cp_bound(config: RunConfig) -> CheckOutcome:
    grid = _unit_grid(config.cp_grid)
    for p in range(1, config.cp_p_max + 1):
        v = cp_bound_check(p, 4 * p, grid, config.sweep_config())
        if not v.ok:
            return v
    return Verdict.holds((0, 4 * config.cp_p_max))


@_check("cp-periodicity", "C_p^(p) = C_p pointwise within combined enclosures")
def _cp_periodicity(config: RunConfig) -> CheckOutcome:
    cfg = config.sweep_config()
    width_cap = Fraction(1, 2 ** 64)
    grid = _unit_grid(config.cp_grid)
    worst = Fraction(0)
    for p in range(1, config.cp_p_max + 1):
        for x in grid:
            a = cp_derivative(p, p, x, cfg).interval()
            b = cp_derivative(p, 0, x, cfg).interval()
            if not a.overlaps(b):
                return Verdict.fails((0, config.cp_p_max), Witness(p, (f"x={x}",)))
            combined = a.width + b.width
            worst = max(worst, combined)
            if combined > width_cap:
                return Verdict.fails(
                    (0, config.cp_p_max),
                    Witness(p, (f"x={x}", f"width={display_float(combined):.3g}")),
                )
    return Verdict.holds((0, config.cp_p_max)), Interval.point(worst)


# -- randomized identities ----------------------------------------------------------


def _poly_jet(coeffs, x, order):
    """The values at x of the polynomial with these coefficients (constant
    first) and of its first ``order`` derivatives.  Every derivative is
    evaluated by Horner's rule in integers over one common denominator."""
    den = math.lcm(*(c.denominator for c in coeffs))
    cur = [c.numerator * (den // c.denominator) for c in coeffs]
    xn, xd = x.numerator, x.denominator
    out = []
    for _ in range(order + 1):
        # acc / xd**(len(cur) - 1) is the polynomial cur at x
        acc, scale = 0, 1
        for c in reversed(cur):
            acc = acc * xn + c * scale
            scale *= xd
        out.append(Fraction(acc, den * (scale // xd)))
        cur = [c * i for i, c in enumerate(cur)][1:] or [0]
    return out


@_check(
    "remainder-reconstruction",
    "f^(n)(x) = sum_k R_n^(k)(xi) * alpha_k^(n)(x,x), exactly on polynomials",
)
def _remainder(config: RunConfig) -> CheckOutcome:
    rng = random.Random(config.seed)
    cases = config.remainder_cases
    for case in range(cases):
        deg = rng.randint(0, 8)
        f = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(deg + 1)]
        p = rng.choice((2, 3))
        n = rng.randint(1, 8)
        xi = Fraction(rng.randint(1, 31), 32)
        Fpoly = [Fraction(0)] * (deg * p + 1)
        for j, c in enumerate(f):
            Fpoly[j * p] = c
        F_jet = _poly_jet(Fpoly, xi, n)
        f_jet0 = _poly_jet(f, Fraction(0), n - 1)
        got = taylor_remainder_reconstruct(f_jet0, F_jet, p, xi).fraction()
        want = _poly_jet(f, xi ** p, n)[n]
        if got != want:
            return Verdict.fails((1, cases), Witness(case, (f"p={p}", f"n={n}", f"xi={xi}")))
    return Verdict.holds((1, cases))


@_check("family-quasianalytic-verdicts", "quasianalyticity by family oracle")
def _family_verdicts(config: RunConfig) -> CheckOutcome:
    cases = [
        (Analytic(), "holds"),
        (Gevrey(1), "fails"),
        (IteratedLog(1), "holds"),
        (IteratedLog(2), "holds"),
        (IteratedLog(3), "holds"),
        (PowerSub(IteratedLog(1), 2), "fails"),
        (PowerSub(IteratedLog(1), 3), "fails"),
        (PowerSub(IteratedLog(2), 2), "holds"),
        (PowerSub(IteratedLog(2), 5), "holds"),
        (PowerSub(IteratedLog(3), 2), "holds"),
    ]
    for i, (seq, expected) in enumerate(cases):
        got = quasianalytic_verdict(seq).outcome
        if got != expected:
            return Verdict.fails(
                (0, len(cases) - 1),
                Witness(i, (seq.describe(), f"expected {expected}", f"got {got}")),
            )
    return Verdict.holds((0, len(cases) - 1))


def _random_table(rng: random.Random, length: int) -> List[Fraction]:
    """1 and then ``length`` fractions a/b with a and b drawn uniformly from
    1..4096: the draws of ``rng.randint(1, 4096)``, taken as 13 random bits
    with values of 4096 and above redrawn."""
    draw = rng.getrandbits
    values = [Fraction(1)]
    for _ in range(length):
        a = draw(13)
        while a >= 4096:
            a = draw(13)
        b = draw(13)
        while b >= 4096:
            b = draw(13)
        values.append(_int_fraction(a + 1, b + 1))
    return values


@_check("powersub-identity", "power substitution with p = 1 is the identity")
def _powersub_identity(config: RunConfig) -> CheckOutcome:
    rng = random.Random(config.seed + 1)
    N = config.transform_window
    cases = max(1, config.transform_cases // 10)
    for case in range(cases):
        seq = Custom(table=_random_table(rng, N))
        ps = PowerSub(seq, 1)
        for n in range(N + 1):
            if ps.exact(n) != seq.exact(n):
                return Verdict.fails((0, N), Witness(n, (f"case={case}",)))
    return Verdict.holds((0, N))


@_check("powersub-composition", "nested power substitutions compose: p then q is pq")
def _powersub_composition(config: RunConfig) -> CheckOutcome:
    rng = random.Random(config.seed + 2)
    N = config.transform_window
    cases = max(1, config.transform_cases // 10)
    for case in range(cases):
        seq = Custom(table=_random_table(rng, N))
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        nested = PowerSub(PowerSub(seq, p), q)
        direct = PowerSub(seq, p * q)
        for n in range(N // (p * q) + 1):
            if nested.exact(n) != direct.exact(n):
                return Verdict.fails((0, N), Witness(n, (f"case={case}", f"p={p}", f"q={q}")))
    return Verdict.holds((0, N))


@_check(
    "regularization-laws",
    "greatest log-convex minorant: below the input, log-convex, idempotent",
)
def _regularization_laws(config: RunConfig) -> CheckOutcome:
    rng = random.Random(config.seed + 3)
    N = config.transform_window
    window = (0, N)
    for case in range(config.transform_cases):
        seq = Custom(table=_random_table(rng, N))
        reg = log_convex_regularization(seq, window)
        forms, reg_forms = _int_roots(seq, 0, N), _int_roots(reg, 0, N)
        for n, ((qn, qd, d), (en, ed, _)) in enumerate(zip(reg_forms, forms, strict=True)):
            # (qn/qd)**(1/d) > en/ed, cross-multiplied on integers
            if qn * ed ** d > en ** d * qd:
                return Verdict.fails(window, Witness(n, (f"case={case}", "not a minorant")))
        if not is_log_convex(reg, (1, N - 1)).ok:
            return Verdict.fails(window, Witness(case, ("output not log-convex",)))
        reg2 = log_convex_regularization(reg, window)
        for n, (fa, fb) in enumerate(zip(reg_forms, _int_roots(reg2, 0, N), strict=True)):
            # equal root forms are equal values; only differing forms need powers
            if fa != fb and fa[0] ** fb[2] * fb[1] ** fa[2] != fb[0] ** fa[2] * fa[1] ** fb[2]:
                return Verdict.fails(window, Witness(n, (f"case={case}", "not idempotent")))
    return Verdict.holds(window)


@_check("induced-germ-lower-bound", "|f^(n)(0)| >= n! * M'_pn / (pn)!")
def _germ_lower(config: RunConfig) -> CheckOutcome:
    cfg = config.sweep_config()
    worst: Optional[Interval] = None
    for p in (2, config.bang_cp_p):
        B = _build_bang(config, p, p * config.germ_n_max, (0, config.germ_n_max))
        if isinstance(B, Verdict):
            return B
        for n in range(config.germ_n_max + 1):
            scalar, verdict = induced_f_derivative(B, n, cfg)
            if not verdict.ok:
                return verdict
            worst = abs(scalar.interval())
    return Verdict.holds((0, config.germ_n_max)), worst


# -- the suite ----------------------------------------------------------------------


def check_ids() -> List[str]:
    return [cid for cid, _, _ in _REGISTRY]


def _clamp_to_window(config: RunConfig) -> RunConfig:
    """Shrink every sweep bound to the configured window top, so small
    windows run a fast subset of the full suite."""
    top = config.window[1]
    clamped = {
        name: min(getattr(config, name), max(2, top))
        for name in (
            "k_max", "n_max", "b_k_max", "b_n_max", "corollary_k_max", "corollary_n_max",
            "lemma2_n_max", "stirling_n_max", "bang_cos_n_max",
            "bang_cp_n_max", "envelope_n_max", "transform_window", "germ_n_max",
        )
    }
    return replace(config, **clamped)


def run_checks(
    config: RunConfig, only: Optional[Sequence[str]] = None
) -> Report:
    config = _clamp_to_window(config)
    records = []
    token = _RUN_SEQUENCES.set({})
    try:
        for cid, anchor, fn in _REGISTRY:
            if only is not None and cid not in only:
                continue
            start = time.perf_counter()
            out = fn(config)
            elapsed = time.perf_counter() - start
            verdict, enc = out if isinstance(out, tuple) else (out, None)
            lower = decimal_str(enc.lo, config.digits, "down") if enc is not None else ""
            upper = decimal_str(enc.hi, config.digits, "up") if enc is not None else ""
            records.append(_record(cid, anchor, verdict, lower, upper, round(elapsed, 6)))
    finally:
        _RUN_SEQUENCES.reset(token)
    return _mini_report(config, records)
