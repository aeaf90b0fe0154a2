"""The run's text formats: the sequence spec language, the ``RunConfig`` of
a run with its config file, and the records and reports every command
emits, with their JSON and CSV writers.  A leaf over ``scalar`` and
``seqcore``: it imports no check and no extremal series, and
``bang.parse_model_spec`` builds the model language on it.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from typing import List, Optional, Tuple

from . import __version__
from .scalar import ScalarConfig
from .seqcore import (
    Analytic,
    Custom,
    Gevrey,
    IteratedLog,
    PowerSub,
    SequenceError,
    Verdict,
    WeightSequence,
)


# the least value of each numeric field that its check can use: below it a
# sweep runs over an empty range, and its Holds would certify nothing
_FIELD_FLOORS = {
    "precision": 64, "digits": 0,
    "k_max": 1, "n_max": 1, "b_k_max": 1, "b_n_max": 1, "corollary_k_max": 1,
    "lemma2_n_max": 1, "stirling_n_max": 2, "bang_cos_n_max": 0, "bang_cp_n_max": 0,
    "bang_cp_p": 1, "envelope_n_max": 0, "envelope_grid": 2, "cp_p_max": 1, "cp_grid": 2,
    "remainder_cases": 1, "transform_cases": 1, "transform_window": 2, "germ_n_max": 0,
}
# comb.COMPOSITION_GUARD: the corollary check enumerates the compositions
# of every n up to corollary_n_max
_COROLLARY_N_CAP = 25


@dataclass(frozen=True)
class RunConfig:
    """Verification run parameters.  Sweep bounds default to the pinned
    sizes of the acceptance checks; shrinking them runs a subset."""

    precision: int = 256
    window: Tuple[int, int] = (1, 64)
    k_max: int = 40
    n_max: int = 40
    b_k_max: int = 10
    b_n_max: int = 30
    p_set: Tuple[int, ...] = (2, 3, 5)
    x_grid: Tuple[Fraction, ...] = (
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1),
        Fraction(2),
    )
    tail_target: Fraction = Fraction(1, 2 ** 64)
    format: str = "json"
    seed: int = 20250809
    digits: int = 30
    corollary_k_max: int = 6
    corollary_n_max: int = 18
    lemma2_n_max: int = 25
    stirling_n_max: int = 60
    bang_cos_n_max: int = 10
    bang_cp_n_max: int = 6
    bang_cp_p: int = 3
    envelope_n_max: int = 12
    envelope_grid: int = 101
    cp_p_max: int = 5
    cp_grid: int = 51
    remainder_cases: int = 200
    transform_cases: int = 1000
    transform_window: int = 32
    germ_n_max: int = 8
    bang_seq: str = "iterlog(2)"

    def __post_init__(self):
        for name, floor in _FIELD_FLOORS.items():
            if getattr(self, name) < floor:
                raise ValueError(f"{name} must be at least {floor}, got {getattr(self, name)}")
        if not self.corollary_k_max <= self.corollary_n_max <= _COROLLARY_N_CAP:
            raise ValueError(
                f"corollary_n_max must lie between corollary_k_max = {self.corollary_k_max} "
                f"and {_COROLLARY_N_CAP}, got {self.corollary_n_max}"
            )
        if self.window[0] > self.window[1]:
            raise ValueError("window must be nonempty")
        if not self.p_set or min(self.p_set) < 2:
            raise ValueError(f"p_set needs root exponents of at least 2, got {self.p_set}")
        if not self.x_grid or min(self.x_grid) <= 0:
            raise ValueError(f"x_grid needs positive values, got {self.x_grid}")
        if self.format not in ("json", "csv"):
            raise ValueError("format must be json or csv")

    def sweep_config(self) -> ScalarConfig:
        # inequality sweeps refine upward from a moderate start; the final
        # comparisons are certified at whatever precision resolved them
        return ScalarConfig(bits=min(128, self.precision), max_doublings=8)


# -- specs, rationals, windows and config files ------------------------------------


class ConfigError(ValueError):
    """Invalid config file or sequence/model specification."""


def config_to_dict(config: RunConfig) -> dict:
    out = {}
    for f in fields(config):
        v = getattr(config, f.name)
        if isinstance(v, Fraction):
            out[f.name] = f"{v.numerator}/{v.denominator}"
        elif isinstance(v, tuple):
            out[f.name] = ",".join(
                f"{x.numerator}/{x.denominator}" if isinstance(x, Fraction) else str(x)
                for x in v
            )
        else:
            out[f.name] = v
    return out


def parse_fraction(text: str) -> Fraction:
    """Rationals as 'a', 'a/b', or the power form '2^-64'."""
    t = text.strip()
    try:
        if "^" in t:
            base, _, exp = t.partition("^")
            return Fraction(int(base)) ** int(exp)
        return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse rational {text!r}") from exc


def _split_top_level(text: str) -> List[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ConfigError(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ConfigError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def parse_call_form(spec: str) -> Tuple[str, List[str]]:
    """The head and the top-level arguments of a call form head(a, b, ...),
    as the sequence and the model specs write them."""
    head, _, rest = spec.strip().partition("(")
    if not rest.endswith(")"):
        raise ConfigError(f"unbalanced parentheses in {spec!r}")
    return head, _split_top_level(rest[:-1])


def parse_sequence_spec(spec: str) -> WeightSequence:
    """Sequence expressions: analytic, gevrey(s), iterlog(k[,offset]),
    powersub(<seq>,p), custom(v0,v1,...)."""
    s = spec.strip()
    if not s:
        raise ConfigError("empty sequence spec")
    if "(" not in s:
        if s == "analytic":
            return Analytic()
        raise ConfigError(f"unknown sequence family {s!r}")
    head, args = parse_call_form(spec)
    try:
        if head == "gevrey":
            (sv,) = args
            return Gevrey(parse_fraction(sv))
        if head == "iterlog":
            if len(args) == 1:
                return IteratedLog(int(args[0]))
            k, offset = args
            return IteratedLog(int(k), int(offset))
        if head == "powersub":
            inner, p = args
            return PowerSub(parse_sequence_spec(inner), int(p))
        if head == "custom":
            return Custom(table=[parse_fraction(a) for a in args])
    except (ValueError, SequenceError) as exc:
        raise ConfigError(f"invalid sequence spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown sequence family {head!r}")


def _parse_window(text: str) -> Tuple[int, int]:
    try:
        a, _, b = text.partition(":")
        a, b = int(a), int(b)
    except ValueError as exc:
        raise ConfigError(f"windows are written a:b, got {text!r}") from exc
    if a > b:
        raise ConfigError(f"window {text!r} is reversed: {a} > {b}")
    return (a, b)


_FIELD_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _parse_config_value(key: str, raw: str):
    """A config value, parsed by the type of the field's default: a window
    is a:b, tuples are comma-separated, rationals as in ``parse_fraction``;
    ``config_to_dict`` writes each field this way."""
    default = _FIELD_DEFAULTS[key]  # KeyError: unknown field
    if key == "window":
        return _parse_window(raw)
    if isinstance(default, tuple):
        item = parse_fraction if isinstance(default[0], Fraction) else int
        return tuple(item(v) for v in raw.split(","))
    if isinstance(default, Fraction):
        return parse_fraction(raw)
    if isinstance(default, int):
        return int(raw)
    return raw.strip()


def load_config_file(path: str) -> dict:
    """Flat key = value text format; # starts a comment."""
    overrides = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {body!r}")
        key, _, raw = body.partition("=")
        key, raw = key.strip(), raw.strip()
        try:
            overrides[key] = _parse_config_value(key, raw)
        except KeyError:
            raise ConfigError(f"{path}:{lineno}: unknown config field {key!r}")
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: field {key!r}: {exc}")
    return overrides


# -- records and reports ----------------------------------------------------------


@dataclass
class Record:
    id: str
    anchor: str
    verdict: str
    witness: str
    lower: str
    upper: str
    seconds: float


@dataclass
class Report:
    version: str
    config: dict
    records: List[Record]
    metadata: dict = field(default_factory=dict)

    def exit_code(self, expectations: Optional[dict] = None) -> int:
        """1 on any Fails, else 2 on an Inconclusive whose resolution was
        expected, else 0.  ``expectations`` maps a record id to whether a
        resolution was expected; ids not in it expect one."""
        if any(r.verdict == "fails" for r in self.records):
            return 1
        expected = expectations or {}
        if any(
            r.verdict == "inconclusive" and expected.get(r.id, True) for r in self.records
        ):
            return 2
        return 0


def _record(
    rid: str, anchor: str, verdict: Verdict, lower: str = "", upper: str = "",
    seconds: float = 0.0,
) -> Record:
    """The report row of ``verdict``; its witness cell is the witness, else
    the trend, else empty."""
    evidence = verdict.witness if verdict.witness is not None else verdict.trend
    return Record(
        id=rid, anchor=anchor, verdict=verdict.outcome,
        witness="" if evidence is None else str(evidence),
        lower=lower, upper=upper, seconds=seconds,
    )


def _mini_report(config: RunConfig, records: List[Record]) -> Report:
    """The report of ``records``, sorted by id, under ``config``."""
    return Report(
        version=__version__,
        config=config_to_dict(config),
        records=sorted(records, key=lambda r: r.id),
        metadata={"created": time.strftime("%Y-%m-%dT%H:%M:%S"), "decimal_digits": config.digits},
    )


def report_to_json_obj(report: Report) -> dict:
    return {
        "version": report.version,
        "config": report.config,
        "metadata": report.metadata,
        "records": [asdict(r) for r in report.records],
    }


def report_from_json_obj(obj: dict) -> Report:
    return Report(
        version=obj["version"],
        config=obj["config"],
        records=[Record(**r) for r in obj["records"]],
        metadata=obj.get("metadata", {}),
    )


def report_to_csv_text(report: Report) -> str:
    """Deterministic CSV: the seconds column is left empty, because timings
    differ from run to run; they live in the JSON records and metadata."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL)
    writer.writerow(["id", "anchor", "verdict", "witness", "lower", "upper", "seconds"])
    for r in report.records:
        writer.writerow([r.id, r.anchor, r.verdict, r.witness, r.lower, r.upper, ""])
    return buf.getvalue()
