"""The helper scripts under scripts/ run end to end at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("bang_profile.py", ["--n-max", "2"], "# "),
        ("dc_curves.py", ["--N", "8", "--step", "4"], "sequence,N,lower,upper"),
    ],
)
def test_script_runs(script, args, header):
    proc = _run(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith(header)


@pytest.mark.parametrize(
    "script, args",
    [
        ("dc_curves.py", ["--digits", "-1"]),
        ("dc_curves.py", ["--step", "0"]),
        ("bang_profile.py", ["--grid", "1"]),
        ("bang_profile.py", ["--seq", "bogus(1)"]),
    ],
)
def test_script_refuses_bad_options(script, args):
    proc = _run(script, args)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


def _run(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=120, env=env,
    )


def test_dc_curves_csv_equals_the_partial_sums_one_by_one(tmp_path):
    import csv
    import importlib.util
    import io

    from carleman.cli import parse_sequence_spec
    from carleman.criteria import dc_partial_sum
    from carleman.scalar import ScalarConfig, decimal_str

    spec_obj = importlib.util.spec_from_file_location("dc_curves", ROOT / "scripts" / "dc_curves.py")
    script = importlib.util.module_from_spec(spec_obj)
    spec_obj.loader.exec_module(script)
    extra = "custom(1,3,2,7,5,11,30,31,64,100,99,300,1000,999,4096,5000,9000,9001,9002,9999)"
    for N, step in ((13, 4), (12, 3), (0, 5), (17, 1)):
        out = tmp_path / f"curves-{N}-{step}.csv"
        argv = ["--N", str(N), "--step", str(step), "--bits", "96", "--digits", "10",
                "--seq", extra, "--out", str(out)]
        assert script.main(argv) == 0
        cfg = ScalarConfig(mode="interval", bits=96)
        seqs = [(s, parse_sequence_spec(s)) for s in script.DEFAULT_FAMILIES + [extra]]
        want = [["sequence", "N", "lower", "upper"]]
        for n in range(0, N + 1, step):
            for spec, seq in seqs:
                enc = dc_partial_sum(seq, n, cfg).interval()
                want.append([spec, str(n), decimal_str(enc.lo, 10, "down"),
                             decimal_str(enc.hi, 10, "up")])
        text = io.StringIO()
        csv.writer(text).writerows(want)
        assert out.read_bytes() == text.getvalue().encode("utf-8"), (N, step)


def test_bang_profile_builds_its_series_at_its_bits(capsys):
    import importlib.util

    spec_obj = importlib.util.spec_from_file_location("bang_profile", ROOT / "scripts" / "bang_profile.py")
    script = importlib.util.module_from_spec(spec_obj)
    spec_obj.loader.exec_module(script)
    parsed, parse = [], script.parse_sequence_spec

    def spy(spec):
        parsed.append(parse(spec))
        return parsed[-1]

    script.parse_sequence_spec = spy  # the module object is this test's own
    assert script.main(["--n-max", "2", "--grid", "3"]) == 0
    assert capsys.readouterr().out.startswith("# ")
    (seq,) = parsed
    assert {b for _, b in seq._enclosure_cache} == {128}


def _ab():
    import importlib.util

    spec_obj = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    script = importlib.util.module_from_spec(spec_obj)
    spec_obj.loader.exec_module(script)
    return script


def test_ab_statistics_on_canned_pairs():
    ab = _ab()
    base = [0.100, 0.104, 0.096, 0.110, 0.102]
    change = [0.090, 0.091, 0.099, 0.085, 0.103]
    assert ab.summary(base) == pytest.approx({"median": 0.102, "min": 0.096, "q1": 0.100, "q3": 0.104})
    r = ab.compare(base, change)
    assert (r["wins"], r["pairs"]) == (3, 5)
    assert r["relative"] == pytest.approx(0.091 / 0.102 - 1)
    assert r["iqr"] == pytest.approx(0.004) and r["resolved"]
    # a gap inside the base's spread is not resolved, whatever the wins
    near = ab.compare(base, [x - 0.001 for x in base])
    assert near["wins"] == 5 and not near["resolved"]
    text = ab.report(base, change)
    assert text.splitlines()[1].split() == ["base", "102.0", "96.0", "100.0", "104.0"]
    assert text.splitlines()[-1] == (
        "change vs base: 3/5 wins, -10.8 %, gap -11.0 ms exceeds the base IQR 4.0 ms"
    )
    with pytest.raises(ValueError):
        ab.compare(base, change[:4])


@pytest.mark.parametrize(
    "args, plan",
    [
        (["--setup"], "# 30 pairs of `import carleman, carleman.cli`"),
        (["--pairs", "12", "--command", "seq show --seq 'gevrey(2)'"],
         "# 12 pairs of `python -m carleman seq show --seq 'gevrey(2)'`"),
    ],
)
def test_ab_dry_run_prints_the_plan_and_makes_no_worktree(args, plan):
    before = set((ROOT / ".bench_build").glob("ab-*"))
    proc = _run("ab.py", ["--base", "HEAD", "--dry-run", *args])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(plan)
    assert set((ROOT / ".bench_build").glob("ab-*")) == before


def test_ab_refuses_too_few_setup_pairs():
    proc = _run("ab.py", ["--base", "HEAD", "--setup", "--pairs", "10", "--dry-run"])
    assert proc.returncode == 2 and "at least 30 pairs" in proc.stderr
