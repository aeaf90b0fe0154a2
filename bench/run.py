#!/usr/bin/env python3
"""Benchmark of the carleman toolkit: one workload, one seed, one run.

    python3 bench/run.py --workload cli-queries --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory.  One client drives the public API in a closed loop from
this single process.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON ``detail`` object (environment, digest, sample counts, failing
operations).  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a separately traced pass.  The same
record, and the spans of a traced run, are written under ``.bench_out/``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9
# a traced run repeats a fixed amount of work, untraced and then traced, so
# its counts repeat exactly for a seed
TRACE_BATCHES = {"verify-suite": 1, "exact-hull": 40, "cli-queries": 3}

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import carleman, carleman.cli\n"
    "print(time.perf_counter() - t)\n"
)


def load_package():
    """Import carleman from this checkout's src; exit 2 when it is absent."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    try:
        import carleman
        import carleman.cli
    except ImportError as exc:
        print(f"bench: cannot import carleman from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(carleman.__file__).resolve().parent.parent != SRC:
        print(f"bench: carleman resolved outside {SRC}: {carleman.__file__}", file=sys.stderr)
        sys.exit(2)
    return carleman, carleman.cli


def import_seconds(repeats: int) -> float:
    """Median import time of the package in fresh interpreters, as each
    command-line invocation pays it."""
    times = []
    for _ in range(repeats):
        res = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT), check=True,
        )
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment(args) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor()
    import mpmath

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "loadavg_start": list(os.getloadavg()),
    }


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a nonempty sample."""
    s = sorted(values)
    if len(s) == 1:
        return s[0]
    pos = q * (len(s) - 1)
    i = int(pos)
    frac = pos - i
    return s[i] if i + 1 >= len(s) else s[i] + (s[i + 1] - s[i]) * frac


class Runner:
    """Closed loop over a workload's batches, timing each operation and
    checking its output outside the timed region."""

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.op_seconds = []
        self.op_kinds = []
        self.check_s = 0.0
        self.batch_wall = []
        self.batch_cpu = []
        self.digest = hashlib.sha256()

    def run_batch(self, b: int, ops, fits=lambda: True) -> bool:
        """Run a batch's operations while ``fits()``; record the batch's
        times only when it completes."""
        wall = cpu = 0.0
        for op in ops:
            if not fits():
                return False
            call = op.call
            if self.tracer is not None:
                self.tracer.begin_operation()
                call = functools.partial(self.tracer.call, f"op.{op.kind}", op.call)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = call()
            except Exception:  # noqa: BLE001 - a raising library call is a failed op
                out = _Raised(traceback.format_exc(limit=4))
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
            wall += dt
            cpu += dc
            self.op_seconds.append(dt)
            self.op_kinds.append(op.kind)
            t1 = time.perf_counter()
            self._judge(op, out, b)
            self.check_s += time.perf_counter() - t1
        self.batch_wall.append(wall)
        self.batch_cpu.append(cpu)
        return True

    def _judge(self, op, out, b):
        per_op = self.wl.checks_per_op
        if isinstance(out, _Raised):
            reasons = [f"raised: {out.text.strip().splitlines()[-1]}"]
        else:
            try:
                reasons = op.check(out)
            except Exception:  # noqa: BLE001 - unreadable output fails the op
                reasons = ["output not understood: " + traceback.format_exc(limit=2).strip().splitlines()[-1]]
        self.attempted += per_op
        if reasons:
            # a multi-check operation prefixes each reason with its check id
            self.failed += 1 if per_op == 1 else min(per_op, len({r.split(":", 1)[0] for r in reasons}))
            self.failures.append({"batch": b, "op": op.label, "reasons": reasons[:4]})
        if b == 0:
            text = f"raised {out.text.strip().splitlines()[-1]}" if isinstance(out, _Raised) else op.digest(out)
            self.digest.update(f"{op.kind}\t{op.label}\n{text}\n".encode("utf-8"))

    def run_for(self, seconds: float):
        """Operations until the budget is spent: the first batch always
        completes, and after it an operation starts only when one more of the
        average length so far (its check included) still ends in time."""
        start = time.perf_counter()

        def fits():
            if not self.batch_wall:
                return True
            elapsed = time.perf_counter() - start
            return elapsed * (len(self.op_seconds) + 1) / len(self.op_seconds) <= seconds

        b = 0
        while self.run_batch(b, self.wl.batch(b), fits):
            b += 1

    def run_fixed(self, batches):
        for b, ops in batches:
            self.run_batch(b, ops)


class _Raised:
    def __init__(self, text):
        self.text = text


def setup_workload(workloads, name, carleman, cli, seed, tmpdir, tiny):
    """Import time (fresh interpreters) plus the median time to generate the
    first batch of inputs."""
    repeats = 3 if tiny else SETUP_REPEATS
    imp = import_seconds(repeats)
    gen = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        wl = workloads.make(name, carleman, cli, seed, tmpdir, tiny)
        wl.batch(0)
        gen.append(time.perf_counter() - t0)
    return wl, imp + statistics.median(gen), {"import_s": imp, "generate_s": statistics.median(gen)}


def end_to_end_metrics(runner, setup_s) -> dict:
    ms = [s * 1000 for s in runner.op_seconds]
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(runner.batch_wall), "s"),
        "cpu_s": (statistics.median(runner.batch_cpu), "s"),
        "op_p50_ms": (percentile(ms, 0.5), "ms"),
        "op_p90_ms": (percentile(ms, 0.9), "ms"),
        "ok_ratio": (1 - runner.failed / runner.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(tracer, workloads, traced_s, untraced_s) -> dict:
    from tracer import LAYERS

    def grp(name):
        return tracer.group_metric(name)

    c = tracer.counters
    out = {}
    n, s = grp("interval_op")
    out["scalar.interval_ops"] = (n, "count")
    out["scalar.interval_ops_s"] = (s, "s")
    out["scalar.endpoint_bits_max"] = (tracer.endpoint_bits_max, "bits")
    n, s = grp("transcendental")
    out["scalar.transcendental_calls"] = (n, "count")
    out["scalar.transcendental_s"] = (s, "s")
    out["scalar.refine_sign_calls"] = (grp("refine_sign")[0], "count")
    n, s = grp("compare")
    out["seqcore.compare_calls"] = (n, "count")
    for key in ("exact", "interval", "ties", "unresolved"):
        out[f"seqcore.compare_{key}"] = (c.get(f"seqcore.compare_{key}", 0), "count")
    out["seqcore.compare_s"] = (s, "s")
    n, s = grp("as_root")
    out["seqcore.as_root_calls"] = (n, "count")
    out["seqcore.as_root_s"] = (s, "s")
    n, s = grp("enclosure")
    out["seqcore.enclosure_calls"] = (n, "count")
    out["seqcore.enclosure_escalated"] = (c.get("seqcore.enclosure_escalated", 0), "count")
    out["seqcore.enclosure_s"] = (s, "s")
    out["seqcore.predicate_s"] = (grp("predicate")[1], "s")
    n, s = grp("regularize")
    out["transforms.regularize_calls"] = (n, "count")
    out["transforms.regularize_s"] = (s, "s")
    out["transforms.hull_turns"] = (grp("hull_turn")[0], "count")
    points = c.get("transforms.points", 0)
    out["transforms.vertex_ratio"] = (c.get("transforms.vertices", 0) / points if points else 0.0, "ratio")
    n, s = grp("estimate")
    out["criteria.estimate_calls"] = (n, "count")
    out["criteria.estimate_s"] = (s, "s")
    n, s = grp("series_mul")
    out["comb.series_mul_calls"] = (n, "count")
    out["comb.series_mul_s"] = (s, "s")
    out["comb.sweep_s"] = (grp("sweep")[1], "s")
    out["comb.remainder_s"] = (grp("remainder")[1], "s")
    for key in ("build", "derivative"):
        n, s = grp(key)
        out[f"bang.{key}_calls"] = (n, "count")
        out[f"bang.{key}_s"] = (s, "s")
    out["bang.cp_s"] = (grp("cp")[1], "s")
    out["bang.norm_s"] = (grp("norm")[1], "s")
    for cid in sorted(workloads.VERIFY_CHECK_IDS):
        out[f"verify.check.{cid}_s"] = (tracer.name_seconds(f"verify.check.{cid}"), "s")
    out["cli.parse_s"] = (grp("parse")[1], "s")
    out["cli.render_s"] = (grp("render")[1], "s")
    selfs = tracer.layer_self_seconds()
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (selfs[layer] / traced_s, "ratio")
    out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)

    carleman, cli = load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    env = environment(args)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        wl, setup_s, setup_parts = setup_workload(
            workloads, args.workload, carleman, cli, args.seed, tmpdir, args.tiny
        )
        detail = {"env": env, "setup": setup_parts}
        if args.trace:
            result = traced_run(args, wl, carleman, workloads, detail)
        else:
            runner = Runner(wl)
            runner.run_for(args.seconds)
            result = summarize(runner, detail)
            result["metrics"] = end_to_end_metrics(runner, setup_s)
            if args.workload == "cli-queries":
                detail["known_defects"] = workloads.known_defects(carleman, cli)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result.pop("metrics").items()}
    record = {"detail": detail, **result, "metrics": metrics}
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def summarize(runner, detail) -> dict:
    detail.update({
        "digest_sha256": runner.digest.hexdigest(),
        "batches": len(runner.batch_wall),
        "op_samples": len(runner.op_seconds),
        "check_s": runner.check_s,
        "failed_ratio": runner.failed / runner.attempted,
        "op_kinds": _kind_table(runner),
        "failures": runner.failures[:50],
    })
    return {"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed}


def _kind_table(runner) -> dict:
    by_kind = {}
    for kind, sec in zip(runner.op_kinds, runner.op_seconds):
        by_kind.setdefault(kind, []).append(sec * 1000)
    return {
        kind: {"ops": len(v), "p50_ms": percentile(v, 0.5), "max_ms": max(v)}
        for kind, v in sorted(by_kind.items())
    }


def traced_run(args, wl, carleman, workloads, detail) -> dict:
    """The same fixed batches, untraced then traced; per-layer metrics come
    from the traced pass, the overhead ratio from the pair."""
    from tracer import Tracer

    count = 1 if args.tiny else TRACE_BATCHES[args.workload]
    plain = Runner(wl)
    plain.run_fixed((b, wl.batch(b)) for b in range(count))
    tracer = Tracer()
    traced = Runner(wl, tracer)
    tracer.install(carleman)
    try:
        traced.run_fixed((b, wl.batch(b)) for b in range(count))
    finally:
        tracer.uninstall()
    untraced_s, traced_s = sum(plain.batch_wall), sum(traced.batch_wall)
    spans = OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
    tracer.write_spans(spans)
    counts = tracer.deterministic_counts()
    result = summarize(traced, detail)
    same = plain.digest.hexdigest() == traced.digest.hexdigest()
    detail.update({
        "untraced_digest_sha256": plain.digest.hexdigest(),
        "untraced_failed": plain.failed,
        "trace_changed_outputs": not same,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans_kept": len(tracer.span_name),
        "spans_file": str(spans.relative_to(ROOT)),
        "counts_sha256": hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest(),
        "counts": counts,
    })
    result["correct"] = result["correct"] and same and plain.failed == 0
    result["metrics"] = layer_metrics(tracer, workloads, traced_s, untraced_s)
    return result


if __name__ == "__main__":
    sys.exit(main())
