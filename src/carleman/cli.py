"""Command-line driver: sequence inspection, transforms, criteria runs,
series combinatorics, extremal-series synthesis, and the full verification
suite with JSON/CSV report emission.

Exit codes: 0 when every emitted verdict holds, 1 on any failure, 2 on an
inconclusive verdict where a resolution was expected or a precision ladder
exhausted at its cap, 3 and up for usage and configuration errors and for
inputs the arithmetic refuses (a non-rational value in exact mode, a float
outside the exponent range).

Report determinism: identical configuration and seed produce byte-identical
CSV output.  Wall-clock timings therefore live in the JSON records and the
metadata section only; the CSV keeps its `seconds` column empty.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import carleman

from .scalar import (
    ExactUnavailableError,
    PrecisionError,
    RangeError,
    Scalar,
    ScalarConfig,
    _fraction_from_mpf_tuple,
    decimal_str,
    display_float,
    fraction_str,
)
from .seqcore import (
    PowerSub,
    SequenceError,
    is_increasing,
    is_log_convex,
    value,
)
from .spec import (
    ConfigError,
    Record,
    Report,
    RunConfig,
    _mini_report,
    _parse_window,
    _record,
    load_config_file,
    parse_fraction,
    parse_sequence_spec,
    report_to_csv_text,
    report_to_json_obj,
)

EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

ENV_PRECISION = "CARLEMAN_PRECISION"

def __getattr__(name):
    # the model parser lives in bang, which cli must not load eagerly; the
    # benchmark's tracer names it as cli.parse_model_spec all the same
    if name == "parse_model_spec":
        return carleman.bang.parse_model_spec
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- RunConfig loading ---------------------------------------------------------------


def build_run_config(args: argparse.Namespace) -> RunConfig:
    overrides = {}
    env_prec = os.environ.get(ENV_PRECISION)
    if env_prec is not None:
        try:
            overrides["precision"] = int(env_prec)
        except ValueError:
            raise ConfigError(f"{ENV_PRECISION} must be an integer, got {env_prec!r}")
    if getattr(args, "config", None):
        overrides.update(load_config_file(args.config))
    for flag in ("precision", "seed", "digits"):
        v = getattr(args, flag, None)
        if v is not None:
            overrides[flag] = v
    if getattr(args, "window", None):
        overrides["window"] = _parse_window(args.window)
    if getattr(args, "format", None):
        overrides["format"] = args.format
    try:
        return RunConfig(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


# -- report emission ------------------------------------------------------------------


def _write_text(path: str, text: str, what: str) -> None:
    """Write ``text`` to ``path``; an OS refusal is a ConfigError (exit 3)."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {what} to {path}: {exc}") from exc


def emit_report(report: Report, path: str, fmt: str) -> None:
    """Write the report as JSON or RFC-4180 CSV."""
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown report format {fmt!r}")
    if fmt == "json":
        text = json.dumps(report_to_json_obj(report), indent=2) + "\n"
    else:
        text = report_to_csv_text(report)
    _write_text(path, text, "report")


def _scalar_cells(s: Scalar, digits: int) -> Tuple[str, str]:
    if s.mode == "exact":
        text = fraction_str(s.exact)
        return (text, text)
    if s.mode == "interval":
        return (
            decimal_str(s.lo, digits, "down"),
            decimal_str(s.hi, digits, "up"),
        )
    # at the interval cells' decimal places, rounded to nearest, ties to even
    text = decimal_str(round(_fraction_from_mpf_tuple(s.approx._mpf_), digits), digits, "down")
    return (text, text)


def _finish(
    report: Report,
    args: argparse.Namespace,
    config: RunConfig,
    expectations: Optional[dict] = None,
) -> int:
    for r in report.records:
        line = f"{r.verdict.upper():14s} {r.id}"
        if r.lower or r.upper:
            line += f"  [{r.lower}, {r.upper}]"
        if r.witness:
            line += f"  ({r.witness})"
        print(line)
    if getattr(args, "emit", None):
        emit_report(report, args.emit, config.format)
        print(f"report written to {args.emit} ({config.format})")
    return report.exit_code(expectations)


# -- subcommand handlers ---------------------------------------------------------------


def _cmd_seq_show(args, config: RunConfig) -> int:
    seq = parse_sequence_spec(args.seq)
    cfg = ScalarConfig(mode=args.mode, bits=config.precision)
    a, b = _parse_window(args.range)
    print(f"# {seq.describe()}  (mode={args.mode}, bits={config.precision})")
    for n in range(a, b + 1):
        s = value(seq, n, cfg)
        lo, hi = _scalar_cells(s, config.digits)
        print(f"{n}\t{lo}" + ("" if lo == hi else f"\t{hi}"))
    return 0


def _cmd_seq_test(args, config: RunConfig) -> int:
    seq = parse_sequence_spec(args.seq)
    cfg = ScalarConfig(bits=config.precision)
    window = config.window
    records = [
        _record("seq-increasing", "M_n <= M_{n+1}", is_increasing(seq, window, cfg)),
        _record(
            "seq-log-convex-base",
            "M_n**2 <= M_{n-1} M_{n+1}",
            is_log_convex(seq, (max(1, window[0]), window[1]), "base", cfg),
        ),
        _record(
            "seq-log-convex-derived",
            "M'_n**2 <= M'_{n-1} M'_{n+1}",
            is_log_convex(seq, (max(1, window[0]), window[1]), "derived", cfg),
        ),
        _record(
            "seq-quasianalytic", "Carleman-sum family oracle",
            carleman.criteria.quasianalytic_verdict(seq),
        ),
    ]
    # Inconclusive only where no family oracle applies: no resolution is expected
    return _finish(_mini_report(config, records), args, config, {"seq-quasianalytic": False})


def _cmd_transform_powersub(args, config: RunConfig) -> int:
    seq = parse_sequence_spec(args.seq)
    ps = PowerSub(seq, args.p)
    cfg = ScalarConfig(mode="interval", bits=config.precision)
    a, b = _parse_window(args.range)
    print(f"# {ps.describe()}")
    for n in range(a, b + 1):
        s = value(ps, n, cfg)
        lo, hi = _scalar_cells(s, config.digits)
        print(f"{n}\t{lo}\t{hi}")
    return 0


def _cmd_transform_regularize(args, config: RunConfig) -> int:
    seq = parse_sequence_spec(args.seq)
    cfg = ScalarConfig(bits=config.precision)
    try:
        reg = carleman.transforms.log_convex_regularization(seq, (0, args.N), cfg)
    except PrecisionError as exc:
        print(f"INCONCLUSIVE   regularization: {exc}")
        return EXIT_INCONCLUSIVE
    print(f"# {reg.describe()}; hull vertices: {list(reg.vertices)}")
    ival = ScalarConfig(mode="interval", bits=config.precision)
    for n in range(args.N + 1):
        s = value(reg, n, ival)
        lo, hi = _scalar_cells(s, config.digits)
        tag = "*" if n in reg.vertices else " "
        print(f"{n}{tag}\t{lo}\t{hi}")
    return 0


def _cmd_criteria_dc(args, config: RunConfig) -> int:
    seq = parse_sequence_spec(args.seq)
    cfg = ScalarConfig(mode="interval", bits=config.precision)
    if args.curve:
        rows = []
        for N, s in enumerate(carleman.criteria.dc_partial_sums(seq, args.N, cfg)):
            lo, hi = _scalar_cells(s, config.digits)
            rows.append((N, lo, hi))
        if args.emit:
            buf = io.StringIO()
            w = csv.writer(buf)
            w.writerow(["N", "lower", "upper"])
            w.writerows(rows)
            _write_text(args.emit, buf.getvalue(), "partial-sum curve")
            print(f"partial-sum curve written to {args.emit}")
        else:
            for N, lo, hi in rows:
                print(f"{N}\t{lo}\t{hi}")
        return 0
    s = carleman.criteria.dc_partial_sum(seq, args.N, cfg)
    lo, hi = _scalar_cells(s, config.digits)
    print(f"partial Carleman sum up to N={args.N}: [{lo}, {hi}]")
    return 0


def _cmd_criteria_closure(args, config: RunConfig) -> int:
    seq = parse_sequence_spec(args.seq)
    cfg = ScalarConfig(mode="interval", bits=config.precision)
    est, verdict = carleman.criteria.derivation_closure_estimate(seq, config.window, cfg)
    lo, hi = _scalar_cells(est, config.digits)
    records = [_record("criteria-derivation-closure", "sup (M_{n+1}/M_n)**(1/n) bounded", verdict, lo, hi)]
    return _finish(_mini_report(config, records), args, config, {"criteria-derivation-closure": False})


def _cmd_criteria_inclusion(args, config: RunConfig) -> int:
    M = parse_sequence_spec(args.seq)
    N = parse_sequence_spec(args.other)
    cfg = ScalarConfig(mode="interval", bits=config.precision)
    est, verdict = carleman.criteria.inclusion_estimate(M, N, config.window, cfg)
    lo, hi = _scalar_cells(est, config.digits)
    records = [_record("criteria-inclusion", "sup (M_n/N_n)**(1/n) bounded", verdict, lo, hi)]
    return _finish(_mini_report(config, records), args, config, {"criteria-inclusion": False})


def _cmd_comb_coefficients(args, config: RunConfig) -> int:
    if not 1 <= args.k <= args.N:
        raise ConfigError(f"need 1 <= --k <= --N, got --k {args.k} and --N {args.N}")
    series = carleman.comb.log_power_coefficients(args.k, args.N)
    print(f"# c[k={args.k}, n] for n = {args.k}..{args.N}")
    for n in range(args.k, args.N + 1):
        print(f"{n}\t{series.coeff(n)}")
    return 0


def _cmd_comb_lemmas(args, config: RunConfig) -> int:
    cfg = config.sweep_config()
    records = []
    which = args.which
    if which in ("lemma1", "all"):
        records.append(
            _record(
                "comb-lemma1", "c[k,n] <= (2e)**n k!/n**k",
                carleman.comb.lemma1_check(config.k_max, config.n_max, cfg),
            )
        )
    if which in ("lemma2", "all"):
        records.append(
            _record(
                "comb-lemma2",
                "|alpha_k^(n)(x,x)| <= (2e)**n n**(n-k) x**(-(pn-k)/p)",
                carleman.comb.lemma2_check(config.p_set, config.lemma2_n_max, config.x_grid, cfg),
            )
        )
    if which in ("stirling", "all"):
        records.append(
            _record(
                "comb-stirling",
                "1/(pn-k)! <= e**(pn)/n**(pn-k)",
                carleman.comb.stirling_sweep(config.p_set, config.stirling_n_max, cfg),
            )
        )
    return _finish(_mini_report(config, records), args, config)


def _bang_from_args(args, config: RunConfig) -> carleman.bang.BangFunction:
    seq = parse_sequence_spec(args.seq)
    max_order = args.max_order
    if max_order is None:
        # eval evaluates at its own order; bounds reaches max(p, 2) n at its top n
        max_order = args.order if hasattr(args, "order") else max(args.p, 2) * args.n
    return carleman.bang.BangFunction(
        seq, p=args.p, max_order=max_order, tail_target=config.tail_target,
        cfg=ScalarConfig(bits=config.precision),
    )


def _cmd_bang_build(args, config: RunConfig) -> int:
    try:
        B = _bang_from_args(args, config)
    except PrecisionError as exc:
        print(f"INCONCLUSIVE   bang-build  (construction gate: {exc})")
        return EXIT_INCONCLUSIVE
    except carleman.bang.GateError as exc:
        print(f"FAILS          bang-build  (construction gate: {exc})")
        return EXIT_FAILS
    print(f"HOLDS          bang-build  {B.describe()}")
    print(
        f"               truncation K={B.K}, relative tail at top order "
        f"{display_float(B.relative_tail(B.max_order)):.3g} <= {display_float(B.tail_target):.3g}, "
        f"tail scope {B.tail_scope}"
    )
    return 0


def _cmd_bang_eval(args, config: RunConfig) -> int:
    if args.order < 0:
        raise ConfigError(f"--order must be nonnegative, got {args.order}")
    B = _bang_from_args(args, config)
    cfg = ScalarConfig(mode="interval", bits=config.precision)
    s = carleman.bang.bang_derivative(B, args.order, parse_fraction(args.xi), cfg)
    lo, hi = _scalar_cells(s, config.digits)
    print(f"F^({args.order})({args.xi}) in [{lo}, {hi}]")
    return 0


def _cmd_bang_bounds(args, config: RunConfig) -> int:
    if args.n < 0:
        raise ConfigError(f"--n must be nonnegative, got {args.n}")
    try:
        B = _bang_from_args(args, config)
    except (carleman.bang.GateError, PrecisionError) as exc:
        # an unresolved gate (PrecisionError) is no certified failure
        verdict = "inconclusive" if isinstance(exc, PrecisionError) else "fails"
        records = [
            Record(
                id="bang-lower-bound", anchor="|F^(pn)(0)| >= M'_pn",
                verdict=verdict, witness=f"construction gate: {exc}",
                lower="", upper="", seconds=0.0,
            )
        ]
        return _finish(_mini_report(config, records), args, config)
    cfg = ScalarConfig(bits=config.precision)
    records = []
    for n in range(args.n + 1):
        v = carleman.bang.bang_lower_bound_certify(B, n, cfg)
        records.append(_record(f"bang-lower-bound-{n:02d}", "|F^(pn)(0)| >= M'_pn", v))
        # n!/(pn)! > 0, so the germ bound is the order's bound, scaled
        records.append(
            _record(f"bang-germ-bound-{n:02d}", "|f^(n)(0)| >= n! M'_pn/(pn)!", v)
        )
    return _finish(_mini_report(config, records), args, config)


def _cmd_bang_norm(args, config: RunConfig) -> int:
    seq = parse_sequence_spec(args.seq)
    model = carleman.bang.parse_model_spec(args.model, seq, config, args.n_max)
    lo, hi = _parse_window(args.interval)
    cfg = ScalarConfig(mode="interval", bits=config.precision)
    s = carleman.bang.class_norm(
        model, seq, (Fraction(lo), Fraction(hi)), parse_fraction(args.r),
        args.n_max, args.grid, cfg,
    )
    cl, ch = _scalar_cells(s, config.digits)
    print(
        f"class norm of {model.describe()} over n <= {args.n_max}, "
        f"{args.grid}-point grid of [{lo}, {hi}], r={args.r}: [{cl}, {ch}] "
        "(window-relative lower estimate of the sup)"
    )
    return 0


def _cmd_verify(args, config: RunConfig) -> int:
    only = args.only.split(",") if args.only else None
    if only:
        known = set(carleman.verify.check_ids())
        for cid in only:
            if cid not in known:
                raise ConfigError(f"unknown check id {cid!r}; known: {sorted(known)}")
    report = carleman.verify.run_checks(config, only)
    return _finish(report, args, config)


# -- parser wiring -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


# every leaf takes these after its own arguments
_COMMON_ARGS = (
    ("--config", dict(help="flat key = value config file")),
    ("--precision", dict(type=int, help="mantissa bits (default 256)")),
    ("--seed", dict(type=int, help="seed for randomized checks")),
    ("--digits", dict(type=int, help="decimal digits for emitted endpoints")),
    ("--window", dict(help="index window a:b")),
    ("--emit", dict(help="write the report to this path")),
    ("--format", dict(choices=("json", "csv"), help="report format")),
)

_SEQ = ("--seq", dict(required=True))
_BANG_SEQ = ("--seq", dict(default="iterlog(2)"))
_BANG_P = ("--p", dict(type=int, default=2))

# command -> leaf, or (help, {action: leaf}) for a group of actions; a leaf
# is (help, handler, arguments)
_COMMANDS = {
    "seq": ("inspect and test weight sequences", {
        "show": ("print sequence values", _cmd_seq_show, (
            _SEQ,
            ("--range", dict(default="0:16", help="index range a:b")),
            ("--mode", dict(choices=("exact", "float", "interval"), default="interval")),
        )),
        "test": ("certified predicates and family verdicts", _cmd_seq_test, (_SEQ,)),
    }),
    "transform": ("power substitution and regularization", {
        "powersub": ("values of the substituted sequence", _cmd_transform_powersub, (
            _SEQ,
            ("--p", dict(type=int, required=True)),
            ("--range", dict(default="0:16")),
        )),
        "regularize": ("greatest log-convex minorant on [0, N]", _cmd_transform_regularize, (
            _SEQ,
            ("--N", dict(type=int, required=True)),
        )),
    }),
    "criteria": ("quasianalyticity, closure, inclusion", {
        "dc": ("partial Carleman sums", _cmd_criteria_dc, (
            _SEQ,
            ("--N", dict(type=int, default=64)),
            ("--curve", dict(action="store_true", help="emit the whole curve as CSV")),
        )),
        "closure": ("derivation-closure estimate", _cmd_criteria_closure, (_SEQ,)),
        "inclusion": ("class-inclusion estimate", _cmd_criteria_inclusion, (
            _SEQ,
            ("--other", dict(required=True)),
        )),
    }),
    "comb": ("series coefficients and inequality sweeps", {
        "coefficients": ("series coefficients c[k, n]", _cmd_comb_coefficients, (
            ("--k", dict(type=int, required=True)),
            ("--N", dict(type=int, required=True)),
        )),
        "lemmas": ("certified inequality sweeps", _cmd_comb_lemmas, (
            ("--which", dict(choices=("lemma1", "lemma2", "stirling", "all"), default="all")),
        )),
    }),
    "bang": ("extremal oscillating series", {
        "build": ("construct and gate-check the series", _cmd_bang_build, (
            _BANG_SEQ,
            _BANG_P,
            ("--max-order", dict(type=int, default=12, dest="max_order")),
        )),
        "eval": ("certified derivative enclosure", _cmd_bang_eval, (
            _BANG_SEQ,
            _BANG_P,
            ("--order", dict(type=int, required=True)),
            ("--xi", dict(default="0")),
            ("--max-order", dict(type=int, default=None, dest="max_order")),
        )),
        "bounds": ("derivative lower-bound certificates", _cmd_bang_bounds, (
            _BANG_SEQ,
            _BANG_P,
            ("--n", dict(type=int, default=6, help="certify orders 0..n")),
            ("--max-order", dict(type=int, default=None, dest="max_order")),
        )),
        "norm": ("window-relative class norm", _cmd_bang_norm, (
            ("--model", dict(required=True)),
            ("--seq", dict(default="analytic")),
            ("--r", dict(default="1")),
            ("--interval", dict(default="-1:1")),
            ("--n-max", dict(type=int, default=8, dest="n_max")),
            ("--grid", dict(type=int, default=21)),
        )),
    }),
    "verify": ("run the full certified check suite", _cmd_verify, (
        ("--only", dict(help="comma-separated subset of check ids")),
    )),
}


def _add_children(parser, dest: str, entries: dict, words: Optional[List[str]]) -> None:
    """The subparsers of ``entries`` under ``parser``: only the child that
    ``words`` names first, or every child when it names none of them.  A
    pruned level lists every name in its metavar, so usage lines keep their
    bytes; a full one keeps argparse's own, which its choice errors print."""
    name = words[0] if words else None
    pruned = name in entries
    sub = parser.add_subparsers(
        dest=dest, required=True, parser_class=_Parser,
        metavar="{" + ",".join(entries) + "}" if pruned else None,
    )
    for child, entry in ({name: entries[name]} if pruned else entries).items():
        p = sub.add_parser(child, help=entry[0])
        if isinstance(entry[1], dict):
            _add_children(p, "action", entry[1], words[1:] if pruned else None)
            continue
        for flag, kwargs in entry[2] + _COMMON_ARGS:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=entry[1])


def build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The parser of every command and action when ``argv`` is None, else
    only of those along the path ``argv`` names; ``main`` prints and parses
    ``argv`` exactly as with the full parser.

    The path is the words that lead ``argv``, up to the first that starts
    with '-': no parser has read an option before them, so the first is the
    command and the next the action.  Past an option, argparse's own rules
    decide what is a word ('-1', '-' and '--' can be), so the path stops.
    """
    words = None
    if argv is not None:
        words = list(itertools.takewhile(lambda a: not a.startswith("-"), argv))
    parser = _Parser(prog="carleman", description=__doc__)
    _add_children(parser, "command", _COMMANDS, words)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        config = build_run_config(args)
        return args.handler(args, config)
    except (SequenceError, ValueError, ExactUnavailableError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
