"""The integer kernels behind the verify checks, against the Fraction and
``randint`` forms they replaced."""

import random
from fractions import Fraction

from carleman import verify
from carleman.seqcore import Custom
from carleman.spec import RunConfig
from carleman.transforms import Regularized
from carleman.verify import _poly_jet, _random_table, run_checks

F = Fraction


def _randint_table(rng, length):
    """The table as ``randint`` draws it."""
    return [F(1)] + [F(rng.randint(1, 4096), rng.randint(1, 4096)) for _ in range(length)]


def test_random_table_draws_the_randint_stream():
    for seed in (0, 1, 7, 20250809, 20250812, 2 ** 40 + 3):
        for length in (0, 1, 32, 200):
            a, b = random.Random(seed), random.Random(seed)
            assert _random_table(a, length) == _randint_table(b, length), (seed, length)
            # the generators stay in step after the table
            assert a.getrandbits(64) == b.getrandbits(64)


def _fraction_poly_jet(coeffs, x, order):
    """Horner's rule on Fractions, derivative by derivative."""
    out, cur = [], list(coeffs)
    for _ in range(order + 1):
        acc = F(0)
        for c in reversed(cur):
            acc = acc * x + c
        out.append(acc)
        cur = [c * i for i, c in enumerate(cur)][1:] or [F(0)]
    return out


def test_poly_jet_equals_fraction_horner():
    rng = random.Random(41)
    for _ in range(400):
        deg = rng.randint(0, 12)
        coeffs = [F(rng.randint(-60, 60), rng.randint(1, 40)) for _ in range(deg + 1)]
        if rng.random() < 0.2:
            coeffs[rng.randrange(deg + 1)] = F(0)
        x = rng.choice((F(0), F(1), F(-3, 2), F(rng.randint(-99, 99), rng.randint(1, 2 ** 20))))
        order = rng.randint(0, deg + 2)
        got = _poly_jet(coeffs, x, order)
        assert got == _fraction_poly_jet(coeffs, x, order), (coeffs, x, order)
        assert all(type(v) is Fraction for v in got)


def _reference_regularization_laws(config):
    """The check's verdict and witness with every point read through
    ``as_root`` and compared on Fractions."""
    from carleman.seqcore import is_log_convex

    rng = random.Random(config.seed + 3)
    N = config.transform_window
    for case in range(config.transform_cases):
        seq = Custom(table=_randint_table(rng, N))
        reg = verify.log_convex_regularization(seq, (0, N))
        for n in range(N + 1):
            q, d = reg.as_root(n)
            if q > seq.exact(n) ** d:
                return ("fails", f"n={n}: case={case}, not a minorant")
        if not is_log_convex(reg, (1, N - 1)).ok:
            return ("fails", f"n={case}: output not log-convex")
        reg2 = verify.log_convex_regularization(reg, (0, N))
        for n in range(N + 1):
            (qa, da), (qb, db) = reg.as_root(n), reg2.as_root(n)
            if qa ** db != qb ** da:
                return ("fails", f"n={n}: case={case}, not idempotent")
    return ("holds", "")


def _laws(config):
    (rec,) = run_checks(config, only=["regularization-laws"]).records
    return rec.verdict, rec.witness


def test_regularization_laws_match_the_fraction_reference(monkeypatch):
    config = RunConfig(transform_cases=40, transform_window=12, seed=5)
    assert _laws(config) == _reference_regularization_laws(config) == ("holds", "")
    orig = verify.log_convex_regularization

    def chord(seq, window):
        # the chord between the two ends: above some tables somewhere inside
        reg = orig(seq, window)
        return Regularized(seq, reg.n_max, (0, reg.n_max))

    monkeypatch.setattr(verify, "log_convex_regularization", chord)
    got = _laws(config)
    assert got == _reference_regularization_laws(config)
    assert got[0] == "fails" and got[1].endswith("not a minorant")
