"""The three benchmark workloads and their correctness gate.

Each workload yields batches of operations.  Batch ``b`` is generated from
``(seed, b)`` alone, so a seed fixes every input and two runs of one seed
see the same operations in the same order.  An operation is one closed-loop
call into the toolkit: the timed part is only that call; generating its
inputs and checking its output against known answers happen outside the
timed region.

* ``verify-suite``: one ``carleman verify`` pass per batch, through
  ``cli.main`` with the pinned default configuration.
* ``exact-hull``: library calls on exact rational tables (hull
  regularization laws, power-substitution laws, series combinatorics).
* ``cli-queries``: single ``cli.main`` commands, mostly on irrational
  weights, with stdout captured.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import random
import re
import traceback
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, List, Optional

import reference as ref
from reference import mp

WORKLOADS = ("verify-suite", "exact-hull", "cli-queries")

# pinned defaults of the verify suite that its reference checks depend on
VERIFY_CHECK_IDS = frozenset({
    "a-coefficient-bound", "b-coefficient-bound", "bang-cos-lower-bound",
    "bang-cp-lower-bound", "bang-envelope", "bang-tail-certificate",
    "corollary-composition-equality", "cp-derivative-bound", "cp-periodicity",
    "family-quasianalytic-verdicts", "induced-germ-lower-bound",
    "lemma1-coefficient-bound", "lemma2-diagonal-derivative-bound",
    "powersub-composition", "powersub-identity", "regularization-laws",
    "remainder-reconstruction", "stirling-reciprocal-factorial",
    "stirling-two-sided-factorial",
})
VERIFY_BANG_COS_N = 10
VERIFY_BANG_CP_P = 3
VERIFY_BANG_CP_N = 6
VERIFY_SWEEP_BITS = 128
# references evaluate at REFERENCE_FACTOR x the working precision; series
# are truncated once their terms fall TRUNCATION_BITS below the working
# precision relative to their scale, far inside any printed enclosure (the
# extremal series' own certified tail is 2**-64 of that scale)
REFERENCE_FACTOR = 4
TRUNCATION_BITS = 64


@dataclass
class Op:
    """One operation: ``call`` is timed; ``check`` returns failure reasons;
    ``digest`` is the behaviour text folded into the run digest."""

    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], List[str]]
    digest: Callable[[object], str]


@dataclass
class CliResult:
    code: Optional[int]
    stdout: str
    stderr: str
    error: Optional[str] = None
    csv: bytes = b""


def cli_call(cli, argv) -> CliResult:
    """Run ``cli.main`` in process with stdout and stderr captured.  An
    exception escaping main is an operation failure, not a benchmark crash."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - the gate reports it as a failed op
            return CliResult(None, out.getvalue(), err.getvalue(), traceback.format_exc(limit=4))
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_digest(res: CliResult) -> str:
    if res.error is not None:
        return "error\n" + res.error.strip().splitlines()[-1]
    return f"exit {res.code}\n{res.stdout}"


def _frac(text: str) -> F:
    return F(text.strip())


_RECORD = re.compile(r"^(HOLDS|FAILS|INCONCLUSIVE)\s+(\S+)(?:\s+\[([^,\]]+), ([^\]]+)\])?")


def _records(stdout: str):
    """{id: (verdict, lo, hi)} from the CLI's record lines."""
    out = {}
    for line in stdout.splitlines():
        m = _RECORD.match(line)
        if m:
            lo = _frac(m.group(3)) if m.group(3) else None
            hi = _frac(m.group(4)) if m.group(4) else None
            out[m.group(2)] = (m.group(1).lower(), lo, hi)
    return out


def _expect_exit(res: CliResult, code: int) -> List[str]:
    if res.error is not None:
        return ["exception escaped cli.main: " + res.error.strip().splitlines()[-1]]
    if res.code != code:
        tail = (res.stderr or res.stdout).strip().splitlines()[-1:] or [""]
        return [f"exit code {res.code}, expected {code} ({tail[0][:120]})"]
    return []


def _contain(lo: F, hi: F, value, prec: int, what: str, abs_err=0) -> List[str]:
    if ref.contains(lo, hi, value, prec, abs_err):
        return []
    return [f"{what}: [{float(lo):.17g}, {float(hi):.17g}] excludes reference {mp.nstr(value, 20)}"]


# -- verify-suite ----------------------------------------------------------------------


class VerifySuite:
    """``carleman verify --format csv --emit <tmp> --seed <seed>``: every check
    at the pinned default configuration.  The tiny size clamps every sweep to
    a small window for the smoke test."""

    name = "verify-suite"
    checks_per_op = len(VERIFY_CHECK_IDS)

    def __init__(self, cli, seed: int, tmpdir: str, tiny: bool = False):
        self.cli, self.seed, self.tmpdir = cli, seed, tmpdir
        self.window_top = 2 if tiny else None

    def batch(self, b: int) -> List[Op]:
        seed = self.seed + b
        path = os.path.join(self.tmpdir, f"verify-{b}.csv")
        argv = ["verify", "--format", "csv", "--emit", path, "--seed", str(seed)]
        if self.window_top is not None:
            argv += ["--window", f"1:{self.window_top}"]

        def call():
            if os.path.exists(path):
                os.remove(path)
            res = cli_call(self.cli, argv)
            with contextlib.suppress(OSError):
                with open(path, "rb") as fh:
                    res.csv = fh.read()
            return res

        return [Op("verify", " ".join(argv[:1] + argv[5:]), call, self._check, self._digest)]

    def _digest(self, res) -> str:
        return f"exit {res.code}\ncsv sha256 {hashlib.sha256(res.csv).hexdigest()}"

    def _clamp(self, v: int) -> int:
        return v if self.window_top is None else min(v, max(2, self.window_top))

    def _check(self, res) -> List[str]:
        """Failure reasons, each prefixed with the check id it concerns."""
        bad = _expect_exit(res, 0)
        if bad:
            return [f"{cid}: {bad[0]}" for cid in sorted(VERIFY_CHECK_IDS)]
        rows = list(csv.DictReader(io.StringIO(res.csv.decode("utf-8"))))
        got = {row["id"]: row for row in rows}
        fails = []
        for cid in sorted(VERIFY_CHECK_IDS - set(got)):
            fails.append(f"{cid}: missing from the report")
        for cid, row in sorted(got.items()):
            if row["verdict"] != "holds":
                fails.append(f"{cid}: verdict {row['verdict']} ({row['witness'][:80]})")
        tops = {
            "bang-cos-lower-bound": (2, 2 * self._clamp(VERIFY_BANG_COS_N)),
            "bang-cp-lower-bound": (VERIFY_BANG_CP_P, VERIFY_BANG_CP_P * self._clamp(VERIFY_BANG_CP_N)),
        }
        with mp.workprec(REFERENCE_FACTOR * VERIFY_SWEEP_BITS):
            seq = ref.RefSeq(("iterlog", 2, None))
            for cid, (p, order) in tops.items():
                row = got.get(cid)
                if row is None:
                    continue
                if not row["lower"]:
                    fails.append(f"{cid}: no enclosure in the report")
                    continue
                jet, err = ref.bang_jet(seq, p, F(0), order, VERIFY_SWEEP_BITS + TRUNCATION_BITS)
                lo, hi, what = _frac(row["lower"]), _frac(row["upper"]), f"|F^({order})(0)|"
                for reason in _contain(lo, hi, abs(jet[order]), mp.prec, what, err[order]):
                    fails.append(f"{cid}: {reason}")
        return fails


# -- exact-hull --------------------------------------------------------------------------


def _random_table(rng, N):
    return [F(1)] + [F(rng.randint(1, 4096), rng.randint(1, 4096)) for _ in range(N)]


def _log_convex_table(rng, N):
    ratios = sorted(F(rng.randint(1, 4096), rng.randint(1, 4096)) for _ in range(N))
    out = [F(1)]
    for q in ratios:
        out.append(out[-1] * q)
    return out


def _geometric_table(rng, N):
    r = F(rng.randint(1, 64), rng.randint(1, 64))
    return [r ** n for n in range(N + 1)]


def _exact_turn(t, i, j, k) -> int:
    """Sign of (k-j) log t_i + (j-i) log t_k - (k-i) log t_j, decided from
    float logs when clear and by exact rational powers otherwise."""
    def lg(q):
        return math.log(q.numerator) - math.log(q.denominator)

    approx = (k - j) * lg(t[i]) + (j - i) * lg(t[k]) - (k - i) * lg(t[j])
    if abs(approx) > 1e-9 * (k - i) * (abs(lg(t[i])) + abs(lg(t[j])) + abs(lg(t[k])) + 1):
        return 1 if approx > 0 else -1
    lhs = t[i] ** (k - j) * t[k] ** (j - i)
    rhs = t[j] ** (k - i)
    return (lhs > rhs) - (lhs < rhs)


def _exact_hull(t) -> tuple:
    stack = []
    for k in range(len(t)):
        while len(stack) >= 2 and _exact_turn(t, stack[-2], stack[-1], k) < 0:
            stack.pop()
        stack.append(k)
    return tuple(stack)


_STIRLING1 = [[1]]


def _stirling1(n, k):
    """Unsigned Stirling numbers of the first kind."""
    while len(_STIRLING1) <= n:
        m = len(_STIRLING1)
        prev = _STIRLING1[-1] + [0]
        _STIRLING1.append([0] + [prev[j - 1] + (m - 1) * prev[j] for j in range(1, m + 1)])
    return _STIRLING1[n][k] if k <= n else 0


def _poly_jet(coeffs, x, order):
    out, cur = [], list(coeffs)
    for _ in range(order + 1):
        acc = F(0)
        for c in reversed(cur):
            acc = acc * x + c
        out.append(acc)
        cur = [c * i for i, c in enumerate(cur)][1:] or [F(0)]
    return out


class ExactHull:
    """Library calls on seeded exact rational tables.  Per batch: one
    regularization-law operation for each N in {16, 32, 64} and each shape
    (random, log-convex, geometric), two power-substitution-law operations
    and three series operations, in seeded order."""

    name = "exact-hull"
    checks_per_op = 1
    SIZES = (16, 32, 64)
    SHAPES = {"random": _random_table, "logconvex": _log_convex_table, "geometric": _geometric_table}

    def __init__(self, carleman, seed: int, tiny: bool = False):
        self.c, self.seed = carleman, seed
        self.sizes = (6, 8, 10) if tiny else self.SIZES
        from carleman.scalar import ScalarConfig

        self.exact_cfg = ScalarConfig(mode="exact")

    def batch(self, b: int) -> List[Op]:
        rng = random.Random(f"exact-hull/{self.seed}/{b}")
        ops = []
        for N in self.sizes:
            for shape, make in self.SHAPES.items():
                ops.append(self._hull_op(make(rng, N), shape, N))
        for _ in range(2):
            ops.append(self._powersub_op(rng))
        ops.append(self._coeff_op(rng))
        ops.append(self._series_op(rng))
        ops.append(self._remainder_op(rng))
        rng.shuffle(ops)
        return ops

    def _hull_op(self, table, shape, N) -> Op:
        c = self.c

        def call():
            seq = c.Custom(table=table)
            reg = c.log_convex_regularization(seq, (0, N))
            minorant = True
            for n in range(N + 1):
                q, d = reg.as_root(n)
                if q > seq.exact(n) ** d:
                    minorant = False
            convex = c.is_log_convex(reg, (1, N - 1)).outcome
            reg2 = c.log_convex_regularization(reg, (0, N))
            idem = True
            for n in range(N + 1):
                qa, da = reg.as_root(n)
                qb, db = reg2.as_root(n)
                if qa ** db != qb ** da:
                    idem = False
            roots = tuple(reg.as_root(n) for n in range(N + 1))
            return reg.vertices, minorant, convex, idem, reg2.vertices, roots

        normalized = [v / table[0] for v in table]

        def check(out):
            vertices, minorant, convex, idem, vertices2, roots = out
            fails = []
            want = _exact_hull(normalized)
            if shape != "random" and want != tuple(range(N + 1)):
                fails.append(f"reference hull of a {shape} table dropped points")
            if vertices != want:
                fails.append(f"vertices {vertices} != reference {want}")
            if not (minorant and convex == "holds" and idem):
                fails.append(f"laws: minorant={minorant} log-convex={convex} idempotent={idem}")
            if vertices2 != tuple(range(N + 1)):
                fails.append("regularizing the regularization dropped points")
            for n, (q, d) in enumerate(roots):
                a = max(v for v in want if v <= n)
                b = min(v for v in want if v >= n)
                # the value is q**(1/d); the reference is X**(1/(b - a))
                if a == b:
                    X, e = normalized[n], 1
                else:
                    X, e = normalized[a] ** (b - n) * normalized[b] ** (n - a), b - a
                ok = q == X if d == e else q ** e == X ** d
                if not ok:
                    fails.append(f"minorant value at n={n} differs from the reference")
                    break
            return fails

        def digest(out):
            vertices, minorant, convex, idem, vertices2, _ = out
            return f"hull {shape} {N} {vertices} {minorant} {convex} {idem} {vertices2}"

        return Op(f"hull-{shape}", f"hull {shape} N={N}", call, check, digest)

    def _powersub_op(self, rng) -> Op:
        c = self.c
        N = self.sizes[1]
        table = _random_table(rng, N)
        convex_table = _log_convex_table(rng, N)
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        cfg = self.exact_cfg

        def call():
            seq = c.Custom(table=table)
            nested = c.PowerSub(c.PowerSub(seq, p), q)
            direct = c.PowerSub(seq, p * q)
            compose = [nested.exact(n) == direct.exact(n) for n in range(N // (p * q) + 1)]
            ident = c.PowerSub(seq, 1)
            identity = [ident.exact(n) == seq.exact(n) for n in range(N + 1)]
            derived = [
                c.derived_power_substitution(seq, p, n, cfg).fraction() for n in range(N // p + 1)
            ]
            top = N // p
            incr = c.is_increasing(c.PowerSub(seq, p), (0, top - 1)).outcome
            convex = c.is_log_convex(c.PowerSub(c.Custom(table=convex_table), p), (1, top - 1)).outcome
            return all(compose), all(identity), derived, incr, convex

        def check(out):
            compose, identity, derived, incr, convex = out
            fails = []
            if not (compose and identity):
                fails.append(f"composition={compose} identity={identity}")
            base = [v / table[0] for v in table]
            want = [F(1)] + [
                F(math.factorial(p * n), n ** ((p - 1) * n)) * base[p * n] for n in range(1, N // p + 1)
            ]
            if derived != want:
                fails.append("derived power substitution differs from the reference")
            top = N // p
            sub = [base[p * n] for n in range(top + 1)]
            want_incr = "holds" if all(sub[n] <= sub[n + 1] for n in range(top)) else "fails"
            if incr != want_incr:
                fails.append(f"increasing verdict {incr}, expected {want_incr}")
            if convex != "holds":
                fails.append(f"log-convex verdict {convex} on a reindexed log-convex table")
            return fails

        def digest(out):
            compose, identity, derived, incr, convex = out
            return f"powersub {N} {p} {q} {compose} {identity} {incr} {convex} {derived[-1]}"

        return Op("powersub", f"powersub N={N} p={p} q={q}", call, check, digest)

    def _coeff_op(self, rng) -> Op:
        c = self.c
        k = rng.randint(3, 5)
        order = rng.randint(30, 34)

        def call():
            series = c.log_power_coefficients(k, order)
            return [series.coeff(n) for n in range(order + 1)]

        def check(out):
            want = [F(0)] * k + [
                F(math.factorial(k) * _stirling1(n, k), math.factorial(n)) for n in range(k, order + 1)
            ]
            return [] if out == want else [f"c[{k}, n] differs from k! |s(n,k)| / n!"]

        return Op("series-coeffs", f"log_power_coefficients({k}, {order})", call, check,
                  lambda out: f"coeffs {k} {order} {out[-1]}")

    def _series_op(self, rng) -> Op:
        c = self.c
        order = rng.randint(20, 24)
        va, vb = rng.randint(0, 3), rng.randint(0, 3)
        a = [F(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(order - va + 1)]
        b = [F(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(order - vb + 1)]
        p = rng.randint(2, 5)
        power = 3

        def call():
            from carleman.comb import TruncatedPowerSeries as T

            sa = T.from_coeffs(a, va, order)
            sb = T.from_coeffs(b, vb, order)
            prod = sa * sb
            powed = sa.pow_int(power)
            root = c.root_series_coefficients(p, order)
            return (
                [prod.coeff(n) for n in range(order + 1)],
                [powed.coeff(n) for n in range(order + 1)],
                [root.coeff(n) for n in range(1, order + 1)],
            )

        def conv(x, vx, y, vy):
            full_x = [F(0)] * vx + x
            full_y = [F(0)] * vy + y
            return [sum((full_x[i] * full_y[n - i] for i in range(n + 1)), F(0)) for n in range(order + 1)]

        def check(out):
            prod, powed, root = out
            fails = []
            if prod != conv(a, va, b, vb):
                fails.append("series product differs from the reference convolution")
            full = [F(0)] * va + a
            acc = full
            for _ in range(power - 1):
                acc = conv(acc, 0, full, 0)
            if powed != acc:
                fails.append("series power differs from repeated convolution")
            binom, want = F(1), []
            for i in range(1, order + 1):
                binom = binom * (F(1, p) - (i - 1)) / i
                want.append(binom)
            if root != want:
                fails.append("root series differs from binomial(1/p, i)")
            return fails

        return Op("series-mul", f"series order={order} p={p}", call, check,
                  lambda out: f"series {out[0][-1]} {out[1][-1]} {out[2][-1]}")

    def _remainder_op(self, rng) -> Op:
        c = self.c
        deg = rng.randint(4, 8)
        f = [F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(deg + 1)]
        p = rng.choice((2, 3))
        n = rng.randint(4, 8)
        xi = F(rng.randint(1, 31), 32)
        Fpoly = [F(0)] * (deg * p + 1)
        for j, v in enumerate(f):
            Fpoly[j * p] = v
        F_jet = _poly_jet(Fpoly, xi, n)
        f_jet0 = _poly_jet(f, F(0), n - 1)
        want = _poly_jet(f, xi ** p, n)[n]

        def call():
            return c.taylor_remainder_reconstruct(f_jet0, F_jet, p, xi).fraction()

        def check(out):
            return [] if out == want else [f"remainder reconstruction {out} != {want}"]

        return Op("remainder", f"remainder p={p} n={n} xi={xi}", call, check,
                  lambda out: f"remainder {out}")


# -- cli-queries ---------------------------------------------------------------------------

PRECISIONS = (128, 256, 512)


_GEVREY_EXPONENTS = (F(1, 2), F(3, 2), F(2, 3), F(5, 4), F(7, 3), F(5, 2))


def _draw_seq(cls: int, variant: int = 0):
    """The sequence spec of family class ``cls`` for ``variant``: 0 iterlog(k)
    at the default shift, 1 iterlog(k, offset), 2 gevrey(s) with non-integer
    s, 3 a power substitution of one of those.  The member is fixed by the
    variant, because its cost varies most; the seed draws the rest."""
    if cls == 0:
        return ("iterlog", 1 + variant % 2, None)
    if cls == 1:
        k = 1 + variant % 3
        lo = {1: 1, 2: 2, 3: 14}[k]
        # offsets start where the k-fold log is not yet positive, so some
        # commands exercise the refusal path
        return ("iterlog", k, lo + variant * 5 % 13)
    if cls == 2:
        return ("gevrey", _GEVREY_EXPONENTS[variant % len(_GEVREY_EXPONENTS)])
    return ("powersub", _draw_seq(variant % 3, variant // 3), 2)


@dataclass(frozen=True)
class Slot:
    """The cost-setting choices of one command, fixed by the batch design:
    working precision, sequence family class and a variant index for the
    remaining discrete choices.  The seed draws everything else."""

    prec: int
    cls: int
    variant: int


def _seq_valid(spec) -> bool:
    base, _ = ref.flatten(spec)
    if base[0] == "iterlog" and base[2] is not None:
        return ref.iterlog_offset_valid(base[1], base[2])
    return True


_MODELS = ("cp", "poly", "compose", "bang")
_INTERVALS = ((-1, 1), (0, 1), (-1, 0), (0, 2), (-2, 2), (0, 3), (-3, 1), (1, 2))
# C_p models are evaluated on [-1, 1] only: beyond it their enclosures are
# unsound (a known defect, reproduced by KNOWN_DEFECTS instead)
_UNIT_INTERVALS = ((-1, 1), (0, 1), (-1, 0))


def _polynomial(model) -> bool:
    return model[0] == "poly" or (model[0] == "compose" and _polynomial(model[1]))


# Known soundness defects of the toolkit, each with a reproducer.  They run
# after the timed loop, untimed and outside attempted/failed, and every
# cli-queries run reports whether each still reproduces.


def _defect_cp_beyond_unit(carleman, cli):
    argv = ["bang", "norm", "--model", "cp(2)", "--seq", "analytic", "--interval=0:3",
            "--n-max", "2", "--grid", "4", "--precision", "128"]
    res = cli_call(cli, argv)
    fails = _expect_exit(res, 0)
    m = re.search(r"r=\S+: \[([^,\]]+), ([^\]]+)\]", res.stdout)
    if fails or not m:
        return " ".join(argv), fails or ["no enclosure printed"]
    with mp.workprec(REFERENCE_FACTOR * 128):
        want, _ = ref.class_norm(("cp", 2), ref.RefSeq(("analytic",)), [F(0), F(1), F(2), F(3)], F(1), 2, 0)
        return " ".join(argv), _contain(_frac(m.group(1)), _frac(m.group(2)), want, mp.prec, "class norm")


def _defect_cp_tail_direction(carleman, cli):
    from carleman.bang import CpModel

    fails = []
    for bits in (16, 64, 256):
        iv = CpModel(2).derivative_enclosure(1, F(-1, 2), bits)
        with mp.workprec(REFERENCE_FACTOR * bits):
            fails += _contain(iv.lo, iv.hi, mp.sinh(mp.mpf(-1) / 2), mp.prec, f"sinh(-1/2) at {bits} bits")
    return "CpModel(2).derivative_enclosure(1, -1/2, bits) for bits in 16, 64, 256", fails


def _defect_traceback(carleman, cli):
    argv = ["seq", "show", "--seq", "iterlog(2)", "--mode", "exact", "--range", "0:2"]
    return " ".join(argv), _expect_exit(cli_call(cli, argv), 3)


KNOWN_DEFECTS = (
    ("C_p model enclosure beyond [-1, 1] drops the tail majorant", _defect_cp_beyond_unit),
    ("C_p series tail points the wrong way for even p, x < 0, odd n", _defect_cp_tail_direction),
    ("arithmetic errors escape cli.main as tracebacks", _defect_traceback),
)


def known_defects(carleman, cli) -> list:
    """Status of each known defect: 'reproduces' while the program still
    fails its reproducer, 'fixed' once it passes."""
    out = []
    for what, probe in KNOWN_DEFECTS:
        command, reasons = probe(carleman, cli)
        out.append({
            "defect": what,
            "reproducer": command,
            "status": "reproduces" if reasons else "fixed",
            "reasons": reasons[:2],
        })
    return out


class CliQueries:
    """A seeded stream of single ``cli.main`` commands.

    Every batch has the same design: each kind below at each working
    precision, with a fixed family class and variant per (kind, precision).
    The seed draws the members of each class and the remaining arguments
    in narrow ranges, and the order of the batch.  Batches therefore cost
    about the same whatever the seed, which keeps run-to-run spread low.
    The extremal-series commands run on the default-shift iterated logs so
    that their construction gate always passes and their cost is uniform."""

    name = "cli-queries"
    checks_per_op = 1
    HEAVY = ("bang-build", "bang-eval", "bang-bounds")
    LIGHT = (
        "seq-test", "seq-show", "regularize", "criteria-dc", "criteria-closure",
        "criteria-inclusion", "bang-norm", "bang-norm", "comb-lemmas",
    )

    def __init__(self, cli, seed: int, tmpdir: str, tiny: bool = False):
        self.cli, self.seed, self.tmpdir = cli, seed, tmpdir
        self.tiny = tiny

    def batch(self, b: int) -> List[Op]:
        rng = random.Random(f"cli-queries/{self.seed}/{b}")
        ops = []
        for pi, prec in enumerate(PRECISIONS[:1] if self.tiny else PRECISIONS):
            for ki, kind in enumerate(self.HEAVY + self.LIGHT):
                cls = 0 if kind in self.HEAVY else (ki + pi) % 4
                slot = Slot(prec, cls, ki + pi)
                ops.append(getattr(self, "_" + kind.replace("-", "_"))(rng, slot))
        rng.shuffle(ops)
        return ops

    def _size(self, rng, lo, hi):
        """A size in [lo, hi]; the ranges are narrow so that batches cost
        about the same whatever the seed."""
        return lo if self.tiny else rng.randint(lo, hi)

    def _op(self, kind, argv, check) -> Op:
        cli = self.cli
        return Op(kind, " ".join(argv), lambda: cli_call(cli, argv), check, _cli_digest)

    @staticmethod
    def _invalid_seq_check(res):
        return _expect_exit(res, 3)

    # each command draws its own arguments, then pairs them with a check that
    # recomputes the known answer independently at REFERENCE_FACTOR x precision

    def _seq_test(self, rng, slot):
        spec = _draw_seq(slot.cls, slot.variant)
        prec = slot.prec
        argv = ["seq", "test", "--seq", ref.spec_text(spec), "--precision", str(prec)]
        a, b = 1, 64
        if slot.variant % 3 or self.tiny:
            a, b = rng.choice((0, 1)), self._size(rng, 28, 32)
            argv += ["--window", f"{a}:{b}"]
        if not _seq_valid(spec):
            return self._op("seq-test", argv, self._invalid_seq_check)

        def check(res):
            with mp.workprec(REFERENCE_FACTOR * prec):
                seq = ref.RefSeq(spec)
                want = {
                    "seq-increasing": "holds" if ref.increasing_holds(seq, a, b) else "fails",
                    "seq-log-convex-base": "holds" if ref.log_convex_holds(seq, a, b, False) else "fails",
                    "seq-log-convex-derived": "holds" if ref.log_convex_holds(seq, a, b, True) else "fails",
                    "seq-quasianalytic": ref.quasianalytic_outcome(spec),
                }
            fails = _expect_exit(res, 1 if "fails" in want.values() else 0)
            got = _records(res.stdout)
            for rid, verdict in want.items():
                if got.get(rid, ("missing",))[0] != verdict:
                    fails.append(f"{rid}: {got.get(rid, ('missing',))[0]}, expected {verdict}")
            return fails

        return self._op("seq-test", argv, check)

    def _seq_show(self, rng, slot):
        spec = _draw_seq(slot.cls, slot.variant)
        prec = slot.prec
        a = rng.randint(0, 4)
        b = a + self._size(rng, 12, 16)
        argv = ["seq", "show", "--seq", ref.spec_text(spec), "--range", f"{a}:{b}", "--precision", str(prec)]
        if not _seq_valid(spec):
            return self._op("seq-show", argv, self._invalid_seq_check)

        def check(res):
            fails = _expect_exit(res, 0)
            if fails:
                return fails
            rows = [line.split("\t") for line in res.stdout.splitlines() if not line.startswith("#")]
            if [int(r[0]) for r in rows] != list(range(a, b + 1)):
                return ["printed indices differ from the requested range"]
            with mp.workprec(REFERENCE_FACTOR * prec):
                seq = ref.RefSeq(spec)
                for r in rows:
                    n, lo = int(r[0]), _frac(r[1])
                    hi = _frac(r[2]) if len(r) > 2 else lo
                    fails += _contain(lo, hi, seq.M(n), mp.prec, f"M_{n}")
            return fails

        return self._op("seq-show", argv, check)

    def _regularize(self, rng, slot):
        spec = _draw_seq(slot.cls, slot.variant)
        prec = slot.prec
        N = self._size(rng, 12, 16)
        argv = ["transform", "regularize", "--seq", ref.spec_text(spec), "--N", str(N), "--precision", str(prec)]
        if not _seq_valid(spec):
            return self._op("regularize", argv, self._invalid_seq_check)

        def check(res):
            fails = _expect_exit(res, 0)
            if fails:
                return fails
            lines = res.stdout.splitlines()
            m = re.search(r"hull vertices: \[([^\]]*)\]", lines[0])
            vertices = tuple(int(v) for v in m.group(1).split(",")) if m else None
            with mp.workprec(REFERENCE_FACTOR * prec):
                seq = ref.RefSeq(spec)
                want = ref.lower_hull([mp.log(seq.M(n)) for n in range(N + 1)])
                if vertices != want:
                    return [f"hull vertices {vertices} != reference {want}"]
                for line in lines[1:]:
                    idx, lo, hi = line.split("\t")
                    n = int(idx.rstrip("* "))
                    fails += _contain(_frac(lo), _frac(hi), ref.minorant_value(seq, want, n), mp.prec,
                                      f"minorant_{n}")
            return fails

        return self._op("regularize", argv, check)

    def _criteria_dc(self, rng, slot):
        spec = _draw_seq(slot.cls, slot.variant)
        prec = slot.prec
        N = self._size(rng, 28, 32)
        curve = slot.variant % 3 == 1
        argv = ["criteria", "dc", "--seq", ref.spec_text(spec), "--N", str(N), "--precision", str(prec)]
        if curve:
            argv.append("--curve")
        if not _seq_valid(spec):
            return self._op("criteria-dc", argv, self._invalid_seq_check)

        def check(res):
            fails = _expect_exit(res, 0)
            if fails:
                return fails
            if curve:
                rows = [line.split("\t") for line in res.stdout.splitlines()]
            else:
                m = re.search(r"\[([^,\]]+), ([^\]]+)\]", res.stdout)
                rows = [[str(N), m.group(1), m.group(2)]] if m else []
            if not rows:
                return ["no enclosure printed"]
            with mp.workprec(REFERENCE_FACTOR * prec):
                seq = ref.RefSeq(spec)
                for r in rows:
                    n = int(r[0])
                    fails += _contain(_frac(r[1]), _frac(r[2]), ref.dc_partial_sum(seq, n), mp.prec, f"S_{n}")
            return fails

        return self._op("criteria-dc", argv, check)

    def _window(self, rng, slot, argv):
        if slot.variant % 3 == 0 and not self.tiny:
            return 1, 64
        b = self._size(rng, 28, 32)
        argv += ["--window", f"1:{b}"]
        return 1, b

    def _criteria_closure(self, rng, slot):
        spec = _draw_seq(slot.cls, slot.variant)
        prec = slot.prec
        argv = ["criteria", "closure", "--seq", ref.spec_text(spec), "--precision", str(prec)]
        a, b = self._window(rng, slot, argv)
        if not _seq_valid(spec):
            return self._op("criteria-closure", argv, self._invalid_seq_check)

        def check(res):
            fails = _expect_exit(res, 0)
            rec = _records(res.stdout).get("criteria-derivation-closure")
            if rec is None or rec[0] != "holds" or rec[1] is None:
                return fails + [f"closure record {rec}, expected holds with an enclosure"]
            with mp.workprec(REFERENCE_FACTOR * prec):
                fails += _contain(rec[1], rec[2], ref.closure_max(ref.RefSeq(spec), a, b), mp.prec, "closure max")
            return fails

        return self._op("criteria-closure", argv, check)

    def _criteria_inclusion(self, rng, slot):
        M = ("analytic",) if slot.variant % 5 == 0 else _draw_seq(slot.cls, slot.variant)
        N = _draw_seq((slot.cls + 1) % 4, slot.variant)
        prec = slot.prec
        argv = ["criteria", "inclusion", "--seq", ref.spec_text(M), "--other", ref.spec_text(N),
                "--precision", str(prec)]
        a, b = self._window(rng, slot, argv)
        if not (_seq_valid(M) and _seq_valid(N)):
            return self._op("criteria-inclusion", argv, self._invalid_seq_check)

        def check(res):
            fails = _expect_exit(res, 0)
            want = ref.inclusion_outcome(M, N)
            rec = _records(res.stdout).get("criteria-inclusion")
            if rec is None or rec[0] != want or rec[1] is None:
                return fails + [f"inclusion record {rec and rec[0]}, expected {want}"]
            with mp.workprec(REFERENCE_FACTOR * prec):
                want_max = ref.inclusion_max(ref.RefSeq(M), ref.RefSeq(N), a, b)
                fails += _contain(rec[1], rec[2], want_max, mp.prec, "inclusion max")
            return fails

        return self._op("criteria-inclusion", argv, check)

    @staticmethod
    def _gate_holds(spec, max_order, prec) -> bool:
        with mp.workprec(REFERENCE_FACTOR * prec):
            return ref.ratios_nondecreasing(ref.RefSeq(spec), ref.bang_K(max_order))

    def _bang_build(self, rng, slot):
        spec = _draw_seq(slot.cls, slot.variant)
        prec = slot.prec
        p = 2 + slot.variant % 2
        order = self._size(rng, 5, 7)
        argv = ["bang", "build", "--seq", ref.spec_text(spec), "--p", str(p), "--max-order", str(order),
                "--precision", str(prec)]
        if not _seq_valid(spec):
            return self._op("bang-build", argv, self._invalid_seq_check)

        def check(res):
            want = "holds" if self._gate_holds(spec, order, prec) else "fails"
            fails = _expect_exit(res, 0 if want == "holds" else 1)
            got = _records(res.stdout).get("bang-build", ("missing",))[0]
            if got != want:
                fails.append(f"bang-build {got}, expected {want}")
            return fails

        return self._op("bang-build", argv, check)

    def _bang_eval(self, rng, slot):
        spec = _draw_seq(slot.cls, slot.variant)
        prec = slot.prec
        order = self._size(rng, 2, 4)
        den = rng.randint(2, 8)
        xi = F(rng.choice([v for v in range(-den, den + 1) if v]), den)
        argv = ["bang", "eval", "--seq", ref.spec_text(spec), "--p", "2", "--order", str(order),
                f"--xi={xi}", "--precision", str(prec)]
        if not _seq_valid(spec):
            return self._op("bang-eval", argv, self._invalid_seq_check)

        def check(res):
            if not self._gate_holds(spec, order, prec):
                return _expect_exit(res, 3)
            fails = _expect_exit(res, 0)
            m = re.search(r"in \[([^,\]]+), ([^\]]+)\]", res.stdout)
            if fails or not m:
                return fails or ["no enclosure printed"]
            with mp.workprec(REFERENCE_FACTOR * prec):
                jet, err = ref.bang_jet(ref.RefSeq(spec), 2, xi, order, prec + TRUNCATION_BITS)
                return _contain(_frac(m.group(1)), _frac(m.group(2)), jet[order], mp.prec,
                                f"F^({order})({xi})", err[order])

        return self._op("bang-eval", argv, check)

    def _bang_bounds(self, rng, slot):
        spec = _draw_seq(slot.cls, slot.variant)
        prec = slot.prec
        p = 2 + slot.variant // 2 % 2
        n = 1 if self.tiny else 1 + slot.variant % 2
        argv = ["bang", "bounds", "--seq", ref.spec_text(spec), "--p", str(p), "--n", str(n),
                "--precision", str(prec)]
        if not _seq_valid(spec):
            return self._op("bang-bounds", argv, self._invalid_seq_check)

        def check(res):
            if not self._gate_holds(spec, max(p, 2) * n, prec):
                fails = _expect_exit(res, 1)
                if _records(res.stdout).get("bang-lower-bound", ("missing",))[0] != "fails":
                    fails.append("construction gate failure not reported")
                return fails
            fails = _expect_exit(res, 0)
            got = _records(res.stdout)
            for i in range(n + 1):
                for rid in (f"bang-lower-bound-{i:02d}", f"bang-germ-bound-{i:02d}"):
                    if got.get(rid, ("missing",))[0] != "holds":
                        fails.append(f"{rid}: {got.get(rid, ('missing',))[0]}, expected holds")
            return fails

        return self._op("bang-bounds", argv, check)

    def _draw_model(self, rng, kind):
        if kind == "cp":
            p = rng.randint(1, 3)
            return ("cp", p), f"cp({p})"
        if kind == "poly":
            cs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
            return ("poly", cs), "poly(" + ",".join(str(c) for c in cs) + ")"
        if kind == "compose":
            inner, text = self._draw_model(rng, rng.choice(("cp", "poly")))
            q = rng.randint(2, 3)
            return ("compose", inner, q), f"compose({text},{q})"
        return ("bang", 2), "bang(2)"

    def _bang_norm(self, rng, slot):
        model, text = self._draw_model(rng, _MODELS[slot.variant % len(_MODELS)])
        spec = ("analytic",) if slot.variant % 2 else _draw_seq(slot.cls, slot.variant)
        prec = slot.prec
        lo, hi = rng.choice(_INTERVALS if _polynomial(model) else _UNIT_INTERVALS)
        r = rng.choice((F(1), F(1, 2), F(2), F(3, 2)))
        heavy = model[0] == "bang"
        n_max = self._size(rng, 1, 2) if heavy else self._size(rng, 3, 5)
        grid = self._size(rng, 2, 3) if heavy else self._size(rng, 5, 9)
        argv = ["bang", "norm", "--model", text, "--seq", ref.spec_text(spec), "--r", str(r),
                f"--interval={lo}:{hi}", "--n-max", str(n_max), "--grid", str(grid),
                "--precision", str(prec)]
        if not _seq_valid(spec):
            return self._op("bang-norm", argv, self._invalid_seq_check)

        def check(res):
            if heavy and (model[1] != 2 or lo < -1 or hi > 1 or not self._gate_holds(spec, 12, prec)):
                # the extremal series is certified on [-1, 1] and, for p != 2, at 0 only
                return _expect_exit(res, 3)
            fails = _expect_exit(res, 0)
            m = re.search(r"r=\S+: \[([^,\]]+), ([^\]]+)\]", res.stdout)
            if fails or not m:
                return fails or ["no enclosure printed"]
            xs = [F(lo) + F(hi - lo) * F(i, grid - 1) for i in range(grid)]
            with mp.workprec(REFERENCE_FACTOR * prec):
                want, err = ref.class_norm(model, ref.RefSeq(spec), xs, r, n_max, prec + TRUNCATION_BITS)
                return _contain(_frac(m.group(1)), _frac(m.group(2)), want, mp.prec, "class norm", err)

        return self._op("bang-norm", argv, check)

    def _comb_lemmas(self, rng, slot):
        which = ("lemma1", "lemma2", "stirling", "all")[slot.variant % 4]
        sizes = {
            "k_max": self._size(rng, 12, 16),
            "n_max": self._size(rng, 12, 16),
            "lemma2_n_max": self._size(rng, 5, 7),
            "stirling_n_max": self._size(rng, 12, 16),
        }
        p_set = sorted(rng.sample((2, 3, 5), 2))
        text = "".join(f"{key} = {v}\n" for key, v in sizes.items())
        text += "p_set = " + ",".join(str(p) for p in p_set) + "\n"
        # named by content, so labels and digests do not depend on the temp dir
        name = f"comb-{hashlib.sha256(text.encode()).hexdigest()[:16]}.cfg"
        path = os.path.join(self.tmpdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        prec = slot.prec
        argv = ["comb", "lemmas", "--which", which, "--config", path, "--precision", str(prec)]
        ids = {"lemma1": ["comb-lemma1"], "lemma2": ["comb-lemma2"], "stirling": ["comb-stirling"]}
        want = ids.get(which, ["comb-lemma1", "comb-lemma2", "comb-stirling"])

        def check(res):
            fails = _expect_exit(res, 0)
            got = _records(res.stdout)
            for rid in want:
                if got.get(rid, ("missing",))[0] != "holds":
                    fails.append(f"{rid}: {got.get(rid, ('missing',))[0]}, expected holds")
            return fails

        op = self._op("comb-lemmas", argv, check)
        op.label = " ".join(argv[:5] + [name] + argv[6:])
        return op


def make(name: str, carleman, cli, seed: int, tmpdir: str, tiny: bool = False):
    if name == "verify-suite":
        return VerifySuite(cli, seed, tmpdir, tiny)
    if name == "exact-hull":
        return ExactHull(carleman, seed, tiny)
    if name == "cli-queries":
        return CliQueries(cli, seed, tmpdir, tiny)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
