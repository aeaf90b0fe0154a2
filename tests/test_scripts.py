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
