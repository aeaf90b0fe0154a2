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
