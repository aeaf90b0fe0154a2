"""Acceptance gate: every headline guarantee of the toolkit, at its pinned
sweep bounds and tolerances, printing one pass/fail line per criterion.

The criteria are exercised through the verification-suite registry with its
default configuration, which pins exactly these bounds:

 1. composition-sum identity, exact for 1 <= k <= 6, k <= n <= 18, under 60 s
 2. coefficient bound c[k,n] <= (2e)**n k!/n**k certified for k, n <= 40
 3. diagonal-derivative bound certified for p in {2,3,5}, k <= n <= 25 and
    every x > 0 (the x factor cancels; the 4-point grid names a witness)
 4. reciprocal-factorial bound certified for p in {2,3,5}, n <= 60, k < pn
 5. extremal lower bounds |F^(2n)(0)| >= M'_2n (cosine, n <= 10) and
    |F^(3n)(0)| >= M'_3n (C_3, n <= 6), truncation tails <= 2**-64 relative
 6. envelope |F^(n)(xi)| <= 2**(n+1) M'_n for every xi in [-1, 1], n <= 12
    (the triangle-inequality majorant; the 101-point grid is the fallback)
 7. |C_p^(n)(x)| <= e for every x in [-1, 1], p <= 5, n <= 4p, and
    C_p^(p) = C_p on a 51-point grid within combined widths <= 2**-64
 8. remainder-identity reconstruction exact on 200 random polynomial cases
 9. quasianalyticity family verdicts
10. transform laws over 1000 randomized sequences on [0, 32]
11. induced-germ lower bound n! M'_pn/(pn)! <= |f^(n)(0)| for n <= 8, p in {2,3}
"""

import hashlib
import time
from fractions import Fraction

import pytest

from carleman.cli import main
from carleman.comb import composition_sum_oracle, log_power_coefficients
from carleman.spec import RunConfig, report_to_csv_text
from carleman.verify import run_checks

F = Fraction

CONFIG = RunConfig()

# sha256 of `carleman verify --format csv` at the default configuration
VERIFY_CSV_SHA256 = "46b0fdd4859697eaee33eb44c2c602daa40b5fde8f251e32d6c56a1787a4f220"

# sha256 of the stdout of single commands on irrational weights at 256 and
# 512 bits, which the default verify CSV does not reach
CLI_STDOUT_SHA256 = {
    "seq show --seq iterlog(2) --range 0:64 --precision 512":
        "542bd4253f1009c1309647149e508c2b7741bbe9e8faae24e63f0280ff7565f3",
    "bang eval --seq iterlog(1) --p 2 --order 5 --xi=1/3 --precision 256":
        "d873b6cb33fc99448e021c22c19aef3b01325d9230ca9069b1ac9d95a4046936",
    "bang eval --seq iterlog(1) --p 3 --order 6 --xi=0 --precision 256":
        "8fc61ae8ed59f9ea0f479a56b4e8fe2a5682235f5f4e3568e28ed998bdd9f660",
    # a window-scope series: classical truncation K and tail
    "bang build --seq iterlog(1,5) --p 2 --max-order 6":
        "fed5aed4cb96b42614f391b83fe63dd5688bfae36ec92f845710cbec96fa2e41",
    "criteria dc --seq iterlog(2) --precision 256":
        "e5fe870f00340ff0b06db4ca5b1e1e727640213029eef1a6eb1466b79d11f3ef",
}


@pytest.fixture(scope="module")
def suite_report():
    return run_checks(CONFIG)


@pytest.fixture(scope="module")
def suite_records(suite_report):
    return {r.id: r for r in suite_report.records}


def _criterion(num, label, records, ids):
    bad = [i for i in ids if records[i].verdict != "holds"]
    status = "PASS" if not bad else "FAIL"
    print(f"criterion {num:2d} {status}: {label}")
    assert not bad, f"criterion {num}: {[(i, records[i].verdict, records[i].witness) for i in bad]}"


def test_criterion_01_corollary_equality_under_60s():
    start = time.perf_counter()
    for k in range(1, CONFIG.corollary_k_max + 1):
        series = log_power_coefficients(k, CONFIG.corollary_n_max)
        for n in range(k, CONFIG.corollary_n_max + 1):
            assert series.coeff(n) == composition_sum_oracle(k, n), (k, n)
    elapsed = time.perf_counter() - start
    print(f"criterion  1 PASS: composition-sum identity exact, {elapsed:.2f}s < 60s")
    assert elapsed < 60.0
    assert CONFIG.corollary_k_max == 6 and CONFIG.corollary_n_max == 18


def test_criterion_02_coefficient_bound(suite_records):
    assert CONFIG.k_max == 40 and CONFIG.n_max == 40
    _criterion(2, "c[k,n] <= (2e)**n k!/n**k for k, n <= 40", suite_records,
               ["lemma1-coefficient-bound"])


def test_criterion_03_diagonal_derivative_bound(suite_records):
    assert CONFIG.p_set == (2, 3, 5) and CONFIG.lemma2_n_max == 25
    assert CONFIG.x_grid == (F(1, 4), F(1, 2), F(1), F(2))
    _criterion(3, "diagonal-derivative bound, p in {2,3,5}, n <= 25, every x > 0",
               suite_records, ["lemma2-diagonal-derivative-bound"])


def test_criterion_04_reciprocal_factorial_bound(suite_records):
    assert CONFIG.stirling_n_max == 60
    _criterion(4, "1/(pn-k)! <= e**(pn)/n**(pn-k) for p in {2,3,5}, n <= 60, k < pn",
               suite_records, ["stirling-reciprocal-factorial"])


def test_criterion_05_extremal_lower_bounds_and_tails(suite_records):
    assert CONFIG.bang_cos_n_max == 10
    assert CONFIG.bang_cp_p == 3 and CONFIG.bang_cp_n_max == 6
    assert CONFIG.tail_target == F(1, 2 ** 64)
    _criterion(5, "|F^(2n)(0)| >= M'_2n (n <= 10), |F^(3n)(0)| >= M'_3n (n <= 6), "
                  "tails <= 2**-64 relative",
               suite_records,
               ["bang-cos-lower-bound", "bang-cp-lower-bound", "bang-tail-certificate"])


def test_criterion_06_envelope(suite_records):
    assert CONFIG.envelope_n_max == 12 and CONFIG.envelope_grid == 101
    # the membership constant is not quoted anywhere; 2**(n+1) M'_n is the
    # envelope derived from the term-wise log-convexity estimate
    _criterion(6, "|F^(n)(xi)| <= 2**(n+1) M'_n for every xi in [-1, 1]; the 101-point "
                  "grid is the fallback, n <= 12",
               suite_records, ["bang-envelope"])


def test_criterion_07_cp_properties(suite_records):
    assert CONFIG.cp_p_max == 5 and CONFIG.cp_grid == 51
    _criterion(7, "|C_p^(n)(x)| <= e on [-1, 1] (p <= 5, n <= 4p) and C_p^(p) = C_p "
                  "within combined widths <= 2**-64",
               suite_records, ["cp-derivative-bound", "cp-periodicity"])


def test_criterion_08_remainder_reconstruction(suite_records):
    assert CONFIG.remainder_cases == 200
    _criterion(8, "remainder identity exact on 200 randomized polynomial cases",
               suite_records, ["remainder-reconstruction"])


def test_criterion_09_family_verdicts(suite_records):
    _criterion(9, "quasianalyticity family verdicts match the family oracles",
               suite_records, ["family-quasianalytic-verdicts"])


def test_criterion_10_transform_laws(suite_records):
    assert CONFIG.transform_cases == 1000 and CONFIG.transform_window == 32
    _criterion(10, "identity/composition of power substitution and "
                   "minorant/log-convexity/idempotence of regularization, "
                   "1000 randomized sequences on [0, 32]",
               suite_records,
               ["powersub-identity", "powersub-composition", "regularization-laws"])


def test_criterion_11_induced_germ_bound(suite_records):
    assert CONFIG.germ_n_max == 8
    _criterion(11, "n! M'_pn/(pn)! <= |f^(n)(0)| for n <= 8, p in {2, 3}",
               suite_records, ["induced-germ-lower-bound"])


def test_suite_exit_contract(suite_records):
    assert all(r.verdict == "holds" for r in suite_records.values())


def test_verify_csv_is_byte_identical(suite_report):
    """The default-config CSV report is pinned byte for byte.

    A change that alters emitted bytes on purpose (a tighter enclosure, a new
    check, a reworded witness) updates VERIFY_CSV_SHA256 and says in
    CHANGES.md which records changed and why.
    """
    text = report_to_csv_text(suite_report)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == VERIFY_CSV_SHA256


@pytest.mark.parametrize("command", sorted(CLI_STDOUT_SHA256))
def test_cli_stdout_is_byte_identical(command, capsys):
    """The stdout of each pinned command is pinned byte for byte.

    A change that alters these bytes on purpose updates CLI_STDOUT_SHA256 and
    says in CHANGES.md which lines changed and why.
    """
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLI_STDOUT_SHA256[command]
