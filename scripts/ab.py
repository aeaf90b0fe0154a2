#!/usr/bin/env python3
"""Cold-start timings of the working tree against a base revision, in
alternated fresh interpreters.

The base revision is checked out with ``git worktree add --detach`` under
.bench_build/ and removed afterwards.  Each pair runs the base first, then
the working tree, each with its own ``src`` on PYTHONPATH and its own root
as the working directory.

``--setup`` times ``import carleman, carleman.cli`` inside the interpreter,
over at least 30 pairs.  ``--command`` times the wall time of one
``python -m carleman ARGV``; it refuses to report when the two trees'
exit codes or stdout differ.  ``--dry-run`` prints the plan and runs
nothing, git included.

Printed per tree: the median, minimum and quartiles.  For the change
against the base: wins out of N pairs, the relative change of the medians,
and whether the gap between the medians exceeds the base's interquartile
range.

Usage:
    python scripts/ab.py --base HEAD~1 --setup
    python scripts/ab.py --base HEAD~1 --pairs 12 --command "seq show --seq gevrey(2)"
"""

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"
MIN_SETUP_PAIRS = 30

# run with the tree's src as argv[1]; prints the import time, then where
# the package came from
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import carleman, carleman.cli\n"
    "print(time.perf_counter() - t)\n"
    "print(carleman.__file__)\n"
)


def summary(xs):
    """Median, minimum and quartiles (inclusive method) of ``xs``."""
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "min": min(xs), "q1": q1, "q3": q3}


def compare(base, change):
    """The change against the base over paired samples (lower is better):
    wins, the relative change of the medians, and whether the gap between
    the medians exceeds the base's interquartile range."""
    if len(base) != len(change):
        raise ValueError("the two trees need the same number of samples")
    b, c = summary(base), summary(change)
    gap = c["median"] - b["median"]
    return {
        "wins": sum(y < x for x, y in zip(base, change)),
        "pairs": len(base),
        "relative": gap / b["median"],
        "gap": gap,
        "iqr": b["q3"] - b["q1"],
        "resolved": abs(gap) > b["q3"] - b["q1"],
    }


def report(base, change):
    """The printed table of two trees' samples, given in seconds, in ms."""
    lines = ["tree    median_ms  min_ms  q1_ms  q3_ms"]
    for name, xs in (("base", base), ("change", change)):
        s = summary(xs)
        lines.append(
            f"{name:7s} {s['median'] * 1e3:9.1f} {s['min'] * 1e3:7.1f} "
            f"{s['q1'] * 1e3:6.1f} {s['q3'] * 1e3:6.1f}"
        )
    r = compare(base, change)
    lines.append(
        f"change vs base: {r['wins']}/{r['pairs']} wins, {r['relative'] * 100:+.1f} %, "
        f"gap {r['gap'] * 1e3:+.1f} ms "
        + ("exceeds" if r["resolved"] else "is within")
        + f" the base IQR {r['iqr'] * 1e3:.1f} ms"
    )
    return "\n".join(lines)


def _env(tree: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def time_setup(tree: Path) -> float:
    res = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tree / "src")],
        capture_output=True, text=True, cwd=tree, check=True, timeout=120,
    )
    seconds, origin = res.stdout.split()
    if not Path(origin).resolve().is_relative_to((tree / "src").resolve()):
        raise RuntimeError(f"carleman resolved outside {tree}: {origin}")
    return float(seconds)


def time_command(tree: Path, argv):
    """Wall time of ``python -m carleman argv`` from ``tree``, with its exit
    code and stdout."""
    t = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "carleman", *argv],
        capture_output=True, text=True, cwd=tree, env=_env(tree), timeout=600,
    )
    return time.perf_counter() - t, (res.returncode, res.stdout)


def run_pairs(base: Path, change: Path, pairs: int, argv=None):
    """Alternated samples, base first; ``argv`` None times the import."""
    samples = {base: [], change: []}
    outputs = set()
    for _ in range(pairs):
        for tree in (base, change):
            if argv is None:
                samples[tree].append(time_setup(tree))
            else:
                seconds, out = time_command(tree, argv)
                samples[tree].append(seconds)
                outputs.add(out)
    if len(outputs) > 1:
        raise RuntimeError("the two trees' exit codes or stdout differ; no timing reported")
    return samples[base], samples[change]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--pairs", type=int, default=None, help="alternated pairs (default 30 / 10)")
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--setup", action="store_true", help="time `import carleman, carleman.cli`")
    what.add_argument("--command", help="time `python -m carleman COMMAND`")
    ap.add_argument("--dry-run", action="store_true", help="print the plan and run nothing")
    args = ap.parse_args(argv)
    pairs = args.pairs if args.pairs is not None else (MIN_SETUP_PAIRS if args.setup else 10)
    if args.setup and pairs < MIN_SETUP_PAIRS:
        ap.error(f"--setup needs at least {MIN_SETUP_PAIRS} pairs")
    if pairs < 2:
        ap.error("--pairs must be at least 2")
    command = None if args.setup else shlex.split(args.command)
    label = "import carleman, carleman.cli" if args.setup else "python -m carleman " + shlex.join(command)
    worktree = BUILD / "ab-base"
    print(f"# {pairs} pairs of `{label}`: base {args.base} at {worktree.relative_to(ROOT)}, "
          f"change the working tree")
    if args.dry_run:
        return 0
    BUILD.mkdir(exist_ok=True)
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(worktree), args.base],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    try:
        base, change = run_pairs(worktree, ROOT, pairs, command)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(worktree)], cwd=ROOT, check=True)
    print(report(base, change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
