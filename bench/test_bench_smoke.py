"""Smoke test of the benchmark at tiny sizes, correctness gate included.

Runs ``bench/run.py`` the way the benchmark contract does, on every workload,
and checks the result line against ``BENCHMARK.json``: every end-to-end
metric untraced, every per-layer metric traced, no failed operation, equal
digests and trace counts for a repeated seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, seed=3, trace=0, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, detail


def _check_metrics(result, group):
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    got = result["metrics"]
    assert set(got) == set(want)
    for name, unit in want.items():
        assert got[name]["unit"] == unit
        assert isinstance(got[name]["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_passes_the_gate(workload):
    result, detail = _result(_run(workload))
    assert result["correct"], detail["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    _check_metrics(result, "end_to_end")
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0
    assert detail["env"]["seed"] == 3 and detail["env"]["nproc"] >= 1
    if workload == "cli-queries":
        assert {d["status"] for d in detail["known_defects"]} <= {"reproduces", "fixed"}
        again, detail2 = _result(_run(workload))
        assert detail2["digest_sha256"] == detail["digest_sha256"]


def test_traced_exact_hull_is_deterministic_and_exact():
    first, d1 = _result(_run("exact-hull", trace=1))
    second, d2 = _result(_run("exact-hull", trace=1))
    _check_metrics(first, "per_layer")
    assert first["correct"] and second["correct"]
    assert not d1["trace_changed_outputs"]
    assert d1["counts_sha256"] == d2["counts_sha256"]
    metrics = first["metrics"]
    assert metrics["scalar.interval_ops"]["value"] == 0
    assert metrics["seqcore.compare_exact"]["value"] > 0
    assert metrics["transforms.hull_turns"]["value"] > 0


def test_traced_cli_queries_take_the_interval_path():
    result, detail = _result(_run("cli-queries", trace=1))
    assert result["correct"], detail["failures"]
    metrics = result["metrics"]
    assert metrics["seqcore.compare_interval"]["value"] > metrics["seqcore.compare_exact"]["value"]
    assert metrics["scalar.interval_ops"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("exact-hull", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
