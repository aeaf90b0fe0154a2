"""CLI behavior: spec parsing, config loading, report emission, exit codes."""

import argparse
import hashlib
import json
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest

from carleman import cli
from carleman.cli import (
    ConfigError,
    build_run_config,
    emit_report,
    load_config_file,
    main,
    parse_fraction,
    parse_sequence_spec,
)
from carleman.criteria import dc_partial_sum
from carleman.scalar import PrecisionError, ScalarConfig, make_scalar
from carleman.seqcore import Analytic, Custom, Gevrey, IteratedLog, PowerSub, Trend, Verdict
from carleman.spec import (
    Record,
    Report,
    RunConfig,
    config_to_dict,
    report_from_json_obj,
    report_to_csv_text,
    report_to_json_obj,
)
from carleman.verify import run_checks

F = Fraction

# sha256 of the stdout of `carleman <words> --help` at COLUMNS=70: the top
# level, each command group and each leaf
CLI_HELP_SHA256 = {
    "":
        "e4a8f7f6aa106759d6ff9f93b7805e6edbba357e003b895b210235c0a6420ea9",
    "seq":
        "3924db5cd0d7d5776432f3ba12d4c290e540fc146c057fd3bfac654f903cd6fc",
    "seq show":
        "89950b78b1f7ba92b482458dd79fa0f7227efe760f70c18dd46a779fd5b6917d",
    "seq test":
        "30850498663941c4a45a0a08b439b24e7d18a28927d14b78c0885ba35e10f3a2",
    "transform":
        "ace8ba8982826937e862908e0dc0e4397e4532ae6b834c050f5cd08cfcc17fa1",
    "transform powersub":
        "b32690c34a78d64655507d644a5a2a8958fd2112eb1384982c1e5d956cb197f7",
    "transform regularize":
        "d694d3256ed9f6f3651ec1dabb800fda1879498fd56bedbd136d17b77da60df8",
    "criteria":
        "ee5694c3fb5c127e70a789c51245939e100f752b8aea37c692769e2a720315c3",
    "criteria dc":
        "6f63fc5b0402df1f6562ddfec34ca6637d7d495b474dbfd231c5ff40ad34cb94",
    "criteria closure":
        "a0fff8751e8855958fee824065eceb4400f9f227b9573bb679661e570523d57e",
    "criteria inclusion":
        "f4e75c6eb8cfdf14ee97088753ad8ffa2da96b071da310a9dca1919196640d8f",
    "comb":
        "70b1e2112190ec33e0f366977bd4ad22af4c3ba99bc3ce77390d3f89408dc73e",
    "comb coefficients":
        "658af39f3b36f54feef6b6f1331ced4e69294a466e5809572342d8cc90c317ef",
    "comb lemmas":
        "fdfd5578455bbecd8c23603374d5230394eebcee868d512d6763bf3e08d034f5",
    "bang":
        "91dd9ebd2d98edf4b4fd6e71485ff17d7547bfd9cd2d912cd03edf2975758ddd",
    "bang build":
        "b24c31ebb66f542c1a4de7b37bc2953819d53c092e91efa7c3979bae60ad7446",
    "bang eval":
        "a94207e51c2b37511c65bba95fdb7dced197b8852b344c571dedde1ed33ee211",
    "bang bounds":
        "70cc2b94035480d2806b5b46ae4b9356257fafacb9cffc5fd0f4fcfe5c09bb06",
    "bang norm":
        "07771598bb4ec403657930dc361c8241a7df7306788f42513de614d665bf0b0e",
    "verify":
        "359a39a3ee6e9271fddb72d1004db766a9fd9f1fb5d1a830dd581c30b78cd2d6",
}

# sha256 of the stderr of argv that argparse refuses, at COLUMNS=70: an
# unknown command, an unknown action, no command, a bad option value and an
# unknown option before a leaf with a required argument
CLI_USAGE_ERROR_SHA256 = {
    "nosuch":
        "9540ec94acb9357b1adecfff8fb91db47c9b32be1794cbe8660b1eafde8d55bd",
    "bang evl":
        "d18c4e6981c384dc500bba7f2733ef321e953aef979bfe759a70172362e5c665",
    "":
        "6533c266353c3d76fe17a1efbd106806bfdd1ffed11fd64c045e747a92ef7cc9",
    "seq show --seq x --precision abc":
        "844ea212e4a8f7bfaa4f6abaeff353f1f32cee7cc4d541385511baffd2ae07b8",
    "--bogus bang eval":
        "fac5cc5cf36ab0d94fa1a7fadc59037797b523444c1deb2c93f9c99b239b64dd",
    # the root usage after a level that names one command, and a missing
    # action
    "seq show --seq analytic --bogus":
        "4df833e5fc337c0c4ef5ff64650d787378c8f7c86068ec7e79011c97e584f3ac",
    "seq":
        "9e416d25dc266a61e505bf4c07c93ba0d46f69d172cce2b68d4fd2d42c205e19",
}

# sha256 of the stdout of argv that asks for help itself, at COLUMNS=70: the
# short flag on a group and on a leaf, and --help before a command
CLI_HELP_ARGV_SHA256 = {
    "bang -h":
        "91dd9ebd2d98edf4b4fd6e71485ff17d7547bfd9cd2d912cd03edf2975758ddd",
    "bang eval -h":
        "a94207e51c2b37511c65bba95fdb7dced197b8852b344c571dedde1ed33ee211",
    "--help seq show":
        "e4a8f7f6aa106759d6ff9f93b7805e6edbba357e003b895b210235c0a6420ea9",
}


def test_parse_fraction_forms():
    assert parse_fraction("3") == 3
    assert parse_fraction("1/4") == F(1, 4)
    assert parse_fraction("2^-64") == F(1, 2 ** 64)
    with pytest.raises(ConfigError):
        parse_fraction("abc")


def test_parse_sequence_specs():
    assert isinstance(parse_sequence_spec("analytic"), Analytic)
    g = parse_sequence_spec("gevrey(3/2)")
    assert isinstance(g, Gevrey) and g.s == F(3, 2)
    il = parse_sequence_spec("iterlog(2,3)")
    assert isinstance(il, IteratedLog) and il.k == 2 and il.shift == 3
    ps = parse_sequence_spec("powersub(iterlog(1),2)")
    assert isinstance(ps, PowerSub) and ps.p == 2 and isinstance(ps.base, IteratedLog)
    cu = parse_sequence_spec("custom(1,2,4,8)")
    assert isinstance(cu, Custom) and cu.exact(3) == 8
    with pytest.raises(ConfigError):
        parse_sequence_spec("mystery(1)")
    with pytest.raises(ConfigError):
        parse_sequence_spec("gevrey(1")


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\n"
        "precision = 128\n"
        "window = 1:8\n"
        "p_set = 2,3\n"
        "x_grid = 1/4,1\n"
        "tail_target = 2^-32\n"
        "seed = 42\n"
        "format = csv\n"
    )
    overrides = load_config_file(str(cfg))
    assert overrides["precision"] == 128
    assert overrides["window"] == (1, 8)
    assert overrides["p_set"] == (2, 3)
    assert overrides["x_grid"] == (F(1, 4), F(1))
    assert overrides["tail_target"] == F(1, 2 ** 32)
    assert overrides["format"] == "csv"


def test_config_file_errors_carry_line_numbers(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("precision = 128\nwidgets = 3\n")
    with pytest.raises(ConfigError, match="bad.cfg:2"):
        load_config_file(str(cfg))
    cfg.write_text("precision twelve\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        load_config_file(str(cfg))


def test_env_precision_override(monkeypatch):
    import argparse

    monkeypatch.setenv("CARLEMAN_PRECISION", "192")
    ns = argparse.Namespace(config=None, precision=None, seed=None, digits=None,
                            window=None, format=None)
    assert build_run_config(ns).precision == 192
    # explicit flag wins over the environment
    ns.precision = 320
    assert build_run_config(ns).precision == 320


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(precision=32)
    with pytest.raises(ValueError):
        RunConfig(window=(5, 1))
    with pytest.raises(ValueError):
        RunConfig(format="xml")
    for bad in (
        dict(digits=-1), dict(cp_grid=1), dict(envelope_grid=1),
        dict(remainder_cases=0), dict(remainder_cases=-3),
        dict(transform_cases=0), dict(transform_cases=-5),
    ):
        with pytest.raises(ValueError):
            RunConfig(**bad)
    assert RunConfig(digits=0, cp_grid=2, envelope_grid=2).digits == 0
    assert RunConfig(remainder_cases=1, transform_cases=1).transform_cases == 1


@pytest.mark.parametrize("line", ["cp_grid = 1", "envelope_grid = 1", "digits = -1"])
def test_main_verify_refuses_degenerate_config_fields(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    rc = main(["verify", "--config", str(cfg), "--only", "cp-derivative-bound"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "error:" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "line,check",
    [
        ("remainder_cases = 0", "remainder-reconstruction"),
        ("transform_cases = -5", "regularization-laws"),
    ],
)
def test_main_verify_refuses_an_empty_case_count(tmp_path, capsys, line, check):
    # a check over no case would report HOLDS having checked nothing
    cfg = tmp_path / "cases.cfg"
    cfg.write_text(line + "\n")
    rc = main(["verify", "--config", str(cfg), "--only", check])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and "Traceback" not in captured.err
    assert "at least 1" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--digits", "-1", "--only", "powersub-identity"],
        ["seq", "show", "--seq", "gevrey(1)", "--range", "0:2", "--digits", "-1"],
    ],
)
def test_main_negative_digits_is_a_usage_error(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 3
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def _tiny_config(**kw):
    defaults = dict(
        window=(1, 3), remainder_cases=5, transform_cases=5,
        envelope_grid=5, cp_grid=5, cp_p_max=2,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_report_json_round_trip(tmp_path):
    report = run_checks(_tiny_config(), only=["corollary-composition-equality", "powersub-identity"])
    path = tmp_path / "report.json"
    emit_report(report, str(path), "json")
    parsed = report_from_json_obj(json.loads(path.read_text()))
    assert parsed == report


def test_report_csv_deterministic_and_rfc4180(tmp_path):
    cfg = _tiny_config()
    r1 = run_checks(cfg, only=["powersub-identity", "remainder-reconstruction"])
    r2 = run_checks(cfg, only=["powersub-identity", "remainder-reconstruction"])
    t1, t2 = report_to_csv_text(r1), report_to_csv_text(r2)
    assert t1 == t2  # byte-identical: timings are excluded from the CSV
    header = t1.splitlines()[0]
    assert header == "id,anchor,verdict,witness,lower,upper,seconds"
    # a quoted field: anchors contain commas
    report = Report(version="x", config={}, records=[
        Record(id="a", anchor='with,comma "q"', verdict="holds", witness="",
               lower="", upper="", seconds=0.0)
    ])
    text = report_to_csv_text(report)
    assert '"with,comma ""q"""' in text


def test_empty_report_is_header_only():
    report = Report(version="x", config={}, records=[])
    assert report_to_csv_text(report).splitlines() == [
        "id,anchor,verdict,witness,lower,upper,seconds"
    ]


def test_records_sorted_by_id():
    report = run_checks(
        _tiny_config(),
        only=["powersub-identity", "a-coefficient-bound", "corollary-composition-equality"],
    )
    ids = [r.id for r in report.records]
    assert ids == sorted(ids)


def test_exit_codes():
    report = run_checks(_tiny_config(), only=["a-coefficient-bound"])
    assert report.exit_code() == 0
    failing = Report(version="x", config={}, records=[
        Record(id="z", anchor="", verdict="fails", witness="", lower="", upper="", seconds=0.0)
    ])
    assert failing.exit_code() == 1
    assert failing.exit_code({"z": False}) == 1
    undecided = Report(version="x", config={}, records=[
        Record(id="z", anchor="", verdict="inconclusive", witness="", lower="", upper="", seconds=0.0)
    ])
    assert undecided.exit_code() == 2
    # an Inconclusive no resolution was expected for does not count
    assert undecided.exit_code({"z": False}) == 0
    assert undecided.exit_code({"other": False}) == 2


@pytest.mark.parametrize(
    "spec,digits,values",
    [
        # iterlog(1) at offset 3: M_1 = 2.7854057586..., M_2 = 8.1440002767...
        ("iterlog(1)", "5", ["1.00000", "2.78541", "8.14400"]),
        ("iterlog(1)", "0", ["1", "3", "8"]),
        # 5/8 and 3/8 are exact dyadics, so their ties round to the even digit
        ("custom(1,1/3,5/8,3/8)", "2", ["1.00", "0.33", "0.62", "0.38"]),
    ],
)
def test_main_seq_show_float_mode_rounds_to_digits(capsys, spec, digits, values):
    rc = main(["seq", "show", "--seq", spec, "--range", f"0:{len(values) - 1}",
               "--mode", "float", "--digits", digits])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[1:] == [f"{n}\t{v}" for n, v in enumerate(values)]


def test_main_seq_show_exact(capsys):
    rc = main(["seq", "show", "--seq", "gevrey(1)", "--range", "0:4", "--mode", "exact"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "24" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--seq", "gevrey(1)", "--range", "1700:1700", "--mode", "exact"],
        ["--seq", "gevrey(1)", "--range", "1700:1700", "--mode", "interval"],
        ["--seq", "gevrey(1)", "--range", "1700:1700", "--mode", "float"],
        ["--seq", "iterlog(1)", "--range", "0:3", "--digits", "100000", "--precision", "64"],
    ],
)
def test_main_seq_show_prints_values_past_the_int_digit_limit(argv, capsys):
    # 1700! has 4 755 digits, past str()'s default limit of 4 300
    rc = main(["seq", "show", *argv])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert len(captured.out.splitlines()[-1]) > 4300


def test_exact_cells_past_the_int_digit_limit_equal_str(capsys):
    import math

    assert main(["seq", "show", "--seq", "gevrey(1)", "--range", "1700:1700",
                 "--mode", "exact"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    q = Fraction(-(7 ** 9000), 3 ** 9001)
    cell = cli._scalar_cells(make_scalar(ScalarConfig(mode="exact"), q), 0)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert line == f"1700\t{math.factorial(1700)}"
        assert cell == (str(q), str(q))
    finally:
        sys.set_int_max_str_digits(limit)


def test_main_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["seq", "show"])  # missing --seq
    assert exc.value.code == 3


def test_main_bad_spec_exit_code(capsys):
    rc = main(["seq", "show", "--seq", "nope(1)"])
    assert rc == 3


def test_main_arithmetic_refusal_exit_code(capsys):
    rc = main(["seq", "show", "--seq", "iterlog(2)", "--mode", "exact"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "error:" in err and "Traceback" not in err


def test_main_verify_subset_and_emit(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main([
        "verify", "--only", "powersub-identity", "--window", "1:3",
        "--emit", str(out), "--format", "csv",
    ])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("id,anchor,verdict")
    assert "powersub-identity,holds" in text.replace(", ", ",").replace(
        "power substitution with p = 1 is the identity,", ""
    ) or "holds" in text


def test_main_verify_unknown_check(capsys):
    rc = main(["verify", "--only", "no-such-check"])
    assert rc == 3


def test_main_bang_gate_failure_record(capsys):
    rc = main([
        "bang", "build", "--seq", "custom(1,50,51,52,53,54,55,56,57,58,59,60)",
        "--p", "2", "--max-order", "2",
    ])
    out = capsys.readouterr().out
    assert rc == 1
    assert "construction gate" in out


def test_main_bang_unresolved_gate_is_inconclusive(monkeypatch, capsys):
    def unresolved(args, config):
        raise PrecisionError("ratio monotonicity unresolved")

    monkeypatch.setattr(cli, "_bang_from_args", unresolved)
    for argv in (
        ["bang", "build", "--seq", "iterlog(2)", "--p", "2"],
        ["bang", "bounds", "--seq", "iterlog(2)", "--p", "2", "--n", "1"],
    ):
        rc = main(argv)
        out = capsys.readouterr().out
        assert rc == 2, argv
        assert "INCONCLUSIVE" in out and "construction gate" in out
        assert "FAILS" not in out


# sha256 of the stdout of `carleman <argv>`; the precision of the series'
# gate does not change it
@pytest.mark.parametrize(
    "argv, bits, digest",
    [
        (["bang", "norm", "--model", "bang(2)", "--seq", "iterlog(1)", "--precision", "128"], 128,
         "414c787b48e959887b09589cabf131bbcf66740aa310584a555ca06e5e128a71"),
        (["bang", "norm", "--model", "compose(bang(2),2)", "--seq", "iterlog(2)",
          "--precision", "512"], 512,
         "a9c65068ca0354b2947596a29194190894b0493a7fe521ba3b1a8d8cc32e506a"),
    ],
)
def test_main_bang_norm_builds_its_series_at_the_command_precision(
    argv, bits, digest, monkeypatch, capsys
):
    parsed = []

    def spy(spec):
        parsed.append(parse_sequence_spec(spec))
        return parsed[-1]

    monkeypatch.setattr(cli, "parse_sequence_spec", spy)
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out) == digest
    (seq,) = parsed
    assert {b for _, b in seq._enclosure_cache} == {bits}


_NORM = ["bang", "norm", "--model", "bang(2)", "--seq", "iterlog(1)"]


def test_main_bang_norm_builds_its_series_for_the_norm_orders(capsys):
    # a series built for the envelope's 12 orders has K = 48, so order 49
    # was refused
    assert main(_NORM + ["--n-max", "49", "--grid", "2"]) == 0
    assert "K=94" in capsys.readouterr().out
    # past 12 the series is longer and its tail smaller: the enclosure lies
    # inside the one of the K = 48 series
    assert main(_NORM + ["--n-max", "20", "--grid", "3"]) == 0
    out = capsys.readouterr().out
    assert "K=59" in out
    lo, hi = map(Fraction, out.split(": [")[1].split("]")[0].split(", "))
    assert Fraction("190.109062464407363205095918083692") <= lo <= hi
    assert hi <= Fraction("190.109062464407463214362545332655")


def test_main_bang_bounds_decides_each_order_once(monkeypatch, capsys):
    from carleman import bang

    certified = []
    certify = bang.bang_lower_bound_certify

    def counted(B, n, cfg):
        certified.append(n)
        return certify(B, n, cfg)

    for module in (bang, cli):
        monkeypatch.setattr(module, "bang_lower_bound_certify", counted)
    assert main(["bang", "bounds", "--seq", "iterlog(2)", "--p", "2", "--n", "6"]) == 0
    assert _sha256(capsys.readouterr().out) == (
        "8c7bc2a54b9dcc81fd21feea9fe6a0bbe6555d144f753c88175cb568efff95e6"
    )
    assert certified == list(range(7))


def test_main_bang_bounds_prints_unresolved_orders_as_inconclusive(monkeypatch, capsys):
    def unresolved(B, n, cfg):
        return Verdict.inconclusive((n, n), Trend(note="unresolved"))

    monkeypatch.setattr(cli, "bang_lower_bound_certify", unresolved)
    assert main(["bang", "bounds", "--seq", "iterlog(2)", "--n", "1"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["INCONCLUSIVE", f"bang-{kind}-bound-{n:02d}"] for kind in ("germ", "lower") for n in (0, 1)
    ]
    assert all(line.endswith("(unresolved)") for line in lines)


_BANG_CHECKS = (
    "bang-cos-lower-bound", "bang-cp-lower-bound", "bang-envelope",
    "bang-tail-certificate", "induced-germ-lower-bound",
)


def test_main_verify_reports_a_failed_bang_gate(tmp_path, capsys):
    cfg = tmp_path / "gate.cfg"
    cfg.write_text("bang_seq = custom(1,50,51,52,53,54,55,56,57,58,59,60)\n")
    out = tmp_path / "r.json"
    rc = main([
        "verify", "--config", str(cfg), "--window", "1:2", "--emit", str(out),
        "--format", "json",
    ])
    assert rc == 1
    records = {r["id"]: r for r in json.loads(out.read_text())["records"]}
    assert len(records) == 19
    for cid, r in records.items():
        if cid in _BANG_CHECKS:
            assert r["verdict"] == "fails", cid
            assert "construction gate: derived sequence is not log-convex" in r["witness"]
        else:
            assert r["verdict"] == "holds", cid


def test_main_verify_unresolved_bang_gate_is_inconclusive(monkeypatch, capsys):
    from carleman import verify

    def unresolved(*args, **kwargs):
        raise PrecisionError("ratio monotonicity unresolved")

    monkeypatch.setattr(verify, "BangFunction", unresolved)
    rc = main(["verify", "--only", ",".join(_BANG_CHECKS), "--window", "1:2"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 2
    assert len(lines) == len(_BANG_CHECKS)
    for line in lines:
        assert line.startswith("INCONCLUSIVE") and "construction gate" in line


def test_bang_sequence_is_parsed_once_per_run_and_dropped_with_it(monkeypatch):
    import gc

    from carleman import verify

    parsed = []

    def spy(spec):
        seq = parse_sequence_spec(spec)
        parsed.append((spec, weakref.ref(seq)))
        return seq

    monkeypatch.setattr(verify, "parse_sequence_spec", spy)
    config = RunConfig(window=(1, 3), remainder_cases=5, transform_cases=10)
    for run in (1, 2):
        report = run_checks(config)
        assert [r.verdict for r in report.records] == ["holds"] * 19
        assert [spec for spec, _ in parsed] == [config.bang_seq] * run
        gc.collect()
        assert all(ref() is None for _, ref in parsed)
        assert verify._RUN_SEQUENCES.get(None) is None


def test_b_coefficient_bounds_are_configured():
    cfg = config_to_dict(RunConfig())
    assert (cfg["b_k_max"], cfg["b_n_max"]) == (10, 30)
    small = run_checks(RunConfig(b_k_max=2, b_n_max=5), only=["b-coefficient-bound"])
    assert small.records[0].verdict == "holds"
    assert small.config["b_n_max"] == 5


def test_main_criteria_inclusion_inconclusive_is_expected(capsys):
    rc = main([
        "criteria", "inclusion", "--seq", "gevrey(1)", "--other", "analytic",
        "--window", "1:8",
    ])
    out = capsys.readouterr().out
    assert rc == 0  # inconclusive, but no oracle was expected here
    assert "INCONCLUSIVE" in out


_FACTORIALS = "custom(1,2,6,24,120,720,5040,40320,362880,3628800,39916800,479001600)"
_FIBONACCI = "custom(1,2,3,5,8,13,21,34,55,89,144,233,377,610,987)"


@pytest.mark.parametrize("argv", [
    # the trend's partial sums stay inside the table, however short
    ["seq", "test", "--seq", f"powersub({_FACTORIALS},2)", "--window", "1:1"],
    ["seq", "test", "--seq", "custom(1,2,8)", "--window", "1:1"],
    # no family oracle covers a table, power-substituted or not: no resolution is expected
    ["seq", "test", "--seq", f"powersub({_FACTORIALS},2)", "--window", "1:3"],
    ["criteria", "closure", "--seq", f"powersub({_FIBONACCI},2)", "--window", "1:6"],
    ["criteria", "closure", "--seq", _FIBONACCI, "--window", "1:6"],
], ids=lambda argv: " ".join(argv[:2]) + " " + argv[3][:8] + " " + argv[-1])
def test_custom_tables_without_a_family_oracle_exit_0(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "INCONCLUSIVE" in out and "FAILS" not in out


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "carleman.cli", "seq", "show", "--seq", "analytic",
         "--range", "0:2", "--mode", "exact"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "1" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["bang", "build", "--seq", "iterlog(2)", "--p", "0"],
        ["bang", "build", "--seq", "iterlog(2)", "--p", "2", "--max-order", "-3"],
        ["bang", "bounds", "--seq", "iterlog(2)", "--p", "0", "--n", "2"],
    ],
)
def test_main_bang_parameter_refusal_is_a_usage_error(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 3
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert "FAILS" not in captured.out and "fails" not in captured.out


def test_main_verify_bang_parameter_refusal_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "p0.cfg"
    cfg.write_text("bang_cp_p = 0\n")
    rc = main(["verify", "--config", str(cfg), "--only", "bang-cp-lower-bound"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "error:" in captured.err
    assert "FAILS" not in captured.out


def test_reversed_window_is_refused(capsys):
    rc = main(["seq", "show", "--seq", "gevrey(1)", "--range", "5:2"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "reversed" in captured.err and captured.out == ""
    with pytest.raises(ConfigError):
        cli._parse_window("3:1")
    assert cli._parse_window("2:2") == (2, 2)


def test_package_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "carleman", "seq", "show", "--seq", "gevrey(1)",
         "--range", "0:2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("2\t2.0")


@pytest.mark.parametrize(
    "argv",
    [
        ["criteria", "dc", "--seq", "analytic", "--N", "2", "--curve",
         "--emit", "/nonexistent/x.csv"],
        ["bang", "norm", "--model", "cp(2)", "--interval=0-3"],
        ["bang", "norm", "--model", "cp(2)", "--n-max", "-1"],
    ],
)
def test_main_bad_output_path_and_norm_arguments_are_usage_errors(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.count("error:") == 1 and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "spec, precision",
    [
        ("analytic", 64),
        ("gevrey(1/2)", 128),
        ("iterlog(2)", 256),
        ("powersub(iterlog(1),2)", 128),
        ("custom(1,3,2,7,5,11,30,31,64,100,99,300,1000,999,4096,5000,9000)", 128),
    ],
)
def test_main_dc_curve_equals_the_partial_sums_one_by_one(spec, precision, capsys):
    N = 15
    assert main(["criteria", "dc", "--seq", spec, "--N", str(N), "--curve",
                 "--precision", str(precision)]) == 0
    seq = parse_sequence_spec(spec)
    cfg = ScalarConfig(mode="interval", bits=precision)
    want = "".join(
        "{}\t{}\t{}\n".format(n, *cli._scalar_cells(dc_partial_sum(seq, n, cfg), 30))
        for n in range(N + 1)
    )
    assert capsys.readouterr().out == want


def test_main_dc_curve_past_a_custom_table_is_refused_as_before(capsys):
    argv = ["criteria", "dc", "--seq", "custom(1,2,3)", "--N", "4", "--curve"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: index 3 beyond the custom table (length 3)\n"
    assert main(["criteria", "dc", "--seq", "analytic", "--N", "-1", "--curve"]) == 0
    assert capsys.readouterr().out == ""


def test_main_dc_curve_is_written(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = main(["criteria", "dc", "--seq", "analytic", "--N", "2", "--curve",
               "--emit", str(out), "--precision", "64", "--digits", "5"])
    assert rc == 0
    assert capsys.readouterr().out == f"partial-sum curve written to {out}\n"
    with open(out, newline="") as fh:
        # the partial sums 1, 1 + 1/2 and 1 + 1/2 + 1/3
        assert fh.read() == (
            "N,lower,upper\r\n0,1.00000,1.00000\r\n1,1.50000,1.50000\r\n"
            "2,1.83333,1.83334\r\n"
        )


def test_config_file_sets_every_run_config_field(tmp_path):
    import dataclasses

    lines = {
        "precision": ("128", 128),
        "window": ("2:9", (2, 9)),
        "k_max": ("5", 5),
        "n_max": ("6", 6),
        "b_k_max": ("3", 3),
        "b_n_max": ("7", 7),
        "p_set": ("2, 7", (2, 7)),
        "x_grid": ("1/3,3", (F(1, 3), F(3))),
        "tail_target": ("2^-20", F(1, 2 ** 20)),
        "format": ("csv", "csv"),
        "seed": ("11", 11),
        "digits": ("12", 12),
        "corollary_k_max": ("2", 2),
        "corollary_n_max": ("9", 9),
        "lemma2_n_max": ("4", 4),
        "stirling_n_max": ("8", 8),
        "bang_cos_n_max": ("3", 3),
        "bang_cp_n_max": ("2", 2),
        "bang_cp_p": ("5", 5),
        "envelope_n_max": ("4", 4),
        "envelope_grid": ("7", 7),
        "cp_p_max": ("2", 2),
        "cp_grid": ("9", 9),
        "remainder_cases": ("10", 10),
        "transform_cases": ("20", 20),
        "transform_window": ("8", 8),
        "germ_n_max": ("3", 3),
        "bang_seq": ("iterlog(1)", "iterlog(1)"),
    }
    assert set(lines) == {f.name for f in dataclasses.fields(RunConfig)}
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{key} = {text}\n" for key, (text, _) in lines.items()))
    config = RunConfig(**load_config_file(str(path)))
    for key, (_, want) in lines.items():
        got = getattr(config, key)
        assert got == want and type(got) is type(want), key
        assert got != getattr(RunConfig(), key), key


def _argv_id(words):
    return words or "<none>"


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("words", sorted(CLI_HELP_SHA256), ids=_argv_id)
def test_cli_help_is_byte_identical(words, monkeypatch, capsys):
    """The help of every parser is pinned byte for byte.

    A change that alters these bytes on purpose updates CLI_HELP_SHA256 and
    says in CHANGES.md which lines changed and why.
    """
    monkeypatch.setenv("COLUMNS", "70")
    with pytest.raises(SystemExit) as exc:
        main(words.split() + ["--help"])
    assert exc.value.code == 0
    assert _sha256(capsys.readouterr().out) == CLI_HELP_SHA256[words]


@pytest.mark.parametrize("words", sorted(CLI_HELP_ARGV_SHA256))
def test_cli_help_flags_anywhere_are_byte_identical(words, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "70")
    with pytest.raises(SystemExit) as exc:
        main(words.split())
    assert exc.value.code == 0
    assert _sha256(capsys.readouterr().out) == CLI_HELP_ARGV_SHA256[words]


@pytest.mark.parametrize("words", sorted(CLI_USAGE_ERROR_SHA256), ids=_argv_id)
def test_cli_usage_errors_are_byte_identical(words, monkeypatch, capsys):
    """The usage and error text of refused argv is pinned byte for byte.

    A change that alters these bytes on purpose updates
    CLI_USAGE_ERROR_SHA256 and says in CHANGES.md which lines changed and why.
    """
    monkeypatch.setenv("COLUMNS", "70")
    with pytest.raises(SystemExit) as exc:
        main(words.split())
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _sha256(captured.err) == CLI_USAGE_ERROR_SHA256[words]


def _children(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _leaf_options(parser, *path):
    for name in path:
        parser = _children(parser)[name]
    return {s for a in parser._actions for s in a.option_strings}


def test_parser_builds_only_the_invoked_path():
    full = cli.build_parser()
    assert set(_children(full)) == set(cli._COMMANDS)
    for command, entry in cli._COMMANDS.items():
        if isinstance(entry[1], dict):
            assert set(_children(_children(full)[command])) == set(entry[1])
    assert "--order" in _leaf_options(full, "bang", "eval")
    assert "--only" in _leaf_options(full, "verify")
    lazy = cli.build_parser(["bang", "eval", "--order", "2"])
    assert list(_children(lazy)) == ["bang"]
    assert list(_children(_children(lazy)["bang"])) == ["eval"]
    assert _leaf_options(lazy, "bang", "eval") == _leaf_options(full, "bang", "eval")
    assert lazy.parse_args(["bang", "eval", "--order", "2"]).handler is cli._cmd_bang_eval
    assert list(_children(cli.build_parser(["verify"]))) == ["verify"]
    # a command with no action builds every action below it
    group = cli.build_parser(["seq"])
    assert list(_children(group)) == ["seq"]
    assert set(_children(_children(group)["seq"])) == {"show", "test"}
    # a path that names no command, or starts with an option, builds all
    for argv in ([], ["--help"], ["nosuch", "show"], ["--", "seq", "show"], ["-1", "seq"]):
        parser = cli.build_parser(argv)
        assert set(_children(parser)) == set(cli._COMMANDS), argv
        assert _leaf_options(parser, "seq", "show") == _leaf_options(full, "seq", "show"), argv
