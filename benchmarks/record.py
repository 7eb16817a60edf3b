#!/usr/bin/env python3
"""Append one line to the performance trajectory, ``BENCH_history.jsonl``.

    python3 benchmarks/record.py [--note TEXT] [--out PATH]
        [--workload NAME ...] [--size full|toy] [--seconds T]
        [--parent REV --pairs K]

Measures the checkout this file sits in:

* ``benchmarks/suite/run.py --workload NAME`` for each of the suite's
  workloads (all seven unless ``--workload`` names some; ``--size`` and
  ``--seconds`` are passed through), each in its own process, its
  end-to-end metrics only;
* the four CI floors, as the ratios their guard tests assert on:
  ``fast_over_legacy`` (``bench_kernel.py``) and the three
  shipped-vs-reference floors of ``bench_protocol.py``.  The floors
  have no toy size, so a ``--size toy`` line records ``null``.

and appends one JSON object (one line) stamped with the commit, whether
the tree had uncommitted changes, the Python version, the usable CPUs,
the platform and a free-text host note.  A full line takes about four
minutes; CI does not run it.

With ``--parent REV --pairs K`` the line compares this checkout with
REV instead of measuring it alone.  REV's committed tree is exported
into a temporary directory (``git archive``: nothing is registered in
the repository; a tree that is not a git checkout, or a REV that does
not resolve, exits 2 with one line), and each workload runs K pairs, one REV run and one
run of this checkout each, alternating which side goes first.  Per
workload the line stores, for each side and each end-to-end metric,
the median and the interquartile range; the change's median over the
parent's (``ratio``); and in how many of the K pairs the change was
better (``won``, in the direction ``BENCHMARK.json`` declares).  The
floors are this checkout's, as in a single-run line.  A PR that claims
a speed-up appends one such line, so the file itself says "0.83x, 10
of 10" instead of one noisy sample per side.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent
ROOT = BENCHMARKS.parent
HISTORY = ROOT / "BENCH_history.jsonl"


def _git(*args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, check=False,
    )
    return done.stdout.strip()


def _workload_names(workloads) -> list:
    if workloads:
        return list(workloads)
    sys.path.insert(0, str(BENCHMARKS / "suite"))
    from workloads import WORKLOADS

    return list(WORKLOADS)


def run_workload(root: Path, name: str, size: str, seconds) -> "dict | None":
    """``{correct, attempted, failed, metrics: {name: value}}`` from
    ``root``'s ``run.py --workload NAME`` in a process of its own (the
    last line it prints is its result; ``None`` if it printed none)."""
    command = [sys.executable, str(root / "benchmarks" / "suite" / "run.py"),
               "--workload", name, "--size", size]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return None if result is None else {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: v["value"] for m, v in result["metrics"].items()},
    }


def suite(workloads, size: str, seconds) -> dict:
    """``{workload: run_workload(...)}`` for this checkout."""
    return {name: run_workload(ROOT, name, size, seconds)
            for name in _workload_names(workloads)}


def _spread(values) -> dict:
    """Median and interquartile range (0 for a single value)."""
    iqr = 0.0
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        iqr = q3 - q1
    return {"median": statistics.median(values), "iqr": iqr}


def compare(parent_runs, change_runs) -> dict:
    """One workload's pairs: per side the median and IQR of every
    end-to-end metric, the change's median over the parent's, and how
    many pairs the change won.  ``None`` if any run printed nothing."""
    runs = parent_runs + change_runs
    if any(r is None for r in runs):
        return None
    better = {m["name"]: m["better"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    metrics = [m for m in better if all(m in r["metrics"] for r in runs)]
    side = {
        label: {m: _spread([r["metrics"][m] for r in rs]) for m in metrics}
        for label, rs in (("parent", parent_runs), ("change", change_runs))
    }
    won = {}
    for m in metrics:
        sign = 1 if better[m] == "lower" else -1
        won[m] = sum(sign * (c["metrics"][m] - p["metrics"][m]) < 0
                     for p, c in zip(parent_runs, change_runs))
    return {
        "correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        **side,
        "ratio": {m: side["change"][m]["median"] / side["parent"][m]["median"]
                  if side["parent"][m]["median"] else None for m in metrics},
        "won": won,
    }


def refusal(rev: str) -> "str | None":
    """Why REV cannot be exported from this tree, in one line, or
    ``None``: the tree must be a git checkout's top (an exported tree
    has no history), and REV must name a commit in it."""
    top = _git("rev-parse", "--show-toplevel")
    if not top or Path(top).resolve() != ROOT:
        return (f"record.py: {ROOT} is not a git checkout, "
                f"so --parent cannot export {rev}")
    if not _git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"):
        return f"record.py: --parent {rev} does not resolve to a commit in {ROOT}"
    return None


def export(rev: str, into: Path) -> None:
    """REV's committed tree, unpacked into ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def paired(rev: str, k: int, workloads, size: str, seconds) -> dict:
    """``{workload: compare(...)}`` over ``k`` alternating pairs of
    REV and this checkout."""
    results = {}
    with tempfile.TemporaryDirectory(prefix="record-parent-") as tmp:
        parent = Path(tmp)
        export(rev, parent)
        for name in _workload_names(workloads):
            runs = {parent: [], ROOT: []}
            for i in range(k):
                for root in (parent, ROOT) if i % 2 == 0 else (ROOT, parent):
                    runs[root].append(run_workload(root, name, size, seconds))
            results[name] = compare(runs[parent], runs[ROOT])
    return results


def floors() -> dict:
    """The four CI floors' measured ratios."""
    import bench_kernel
    import bench_protocol

    handle = bench_kernel.events_per_sec("cancellable-handle", n=50_000)
    fast = bench_kernel.events_per_sec("fast", n=50_000)
    ratios = {"fast_over_legacy": round(fast / handle, 2)}
    for key in bench_protocol.FLOORS:
        ratios[key] = bench_protocol.floor_row(key)["ratio"]
    return ratios


def record(workloads=None, size="full", seconds=None, note="",
           parent=None, pairs=5) -> dict:
    """The line for this checkout (compared with ``parent`` over
    ``pairs`` pairs when one is given): its ``src/`` and
    ``benchmarks/`` go first on ``sys.path``, as ``run.py`` puts them
    for the suite."""
    for path in (BENCHMARKS, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from repro.experiments.parallel import _usable_cpus

    line = {
        "commit": _git("rev-parse", "--short", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "usable_cpus": _usable_cpus(),
        "platform": platform.platform(),
        "note": note,
        "size": size,
        "seconds": seconds,
    }
    if parent is None:
        line["workloads"] = suite(workloads, size, seconds)
    else:
        line["parent"] = _git("rev-parse", "--short", parent)
        line["pairs"] = pairs
        line["workloads"] = paired(parent, pairs, workloads, size, seconds)
    line["floors"] = floors() if size == "full" else None
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", default=None, metavar="NAME",
                        help="default: all seven")
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--seconds", type=float, default=None,
                        help="the suite's timed loops (default: BENCHMARK.json's)")
    parser.add_argument("--note", default="", help="what the host was, e.g. its load")
    parser.add_argument("--out", type=Path, default=HISTORY,
                        help=f"the file to append to (default: {HISTORY.name})")
    parser.add_argument("--parent", metavar="REV",
                        help="compare with this commit, in alternating pairs")
    parser.add_argument("--pairs", type=int, default=None, metavar="K",
                        help="pairs per workload with --parent (default: 5)")
    args = parser.parse_args(argv)
    if args.pairs is not None and (args.parent is None or args.pairs < 1):
        parser.error("--pairs takes a count >= 1, and needs --parent")
    pairs = args.pairs or 5
    problem = args.parent and refusal(args.parent)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    line = record(args.workload, args.size, args.seconds, args.note,
                  args.parent, pairs)
    with args.out.open("a", encoding="utf-8") as out:
        out.write(json.dumps(line, sort_keys=True) + "\n")
    failed = [name for name, r in line["workloads"].items() if not (r and r["correct"])]
    print(f"appended to {args.out}: {len(line['workloads'])} workloads"
          + (f", NOT CORRECT: {failed}" if failed else ""))
    for name, r in line["workloads"].items():
        if r and "ratio" in r:
            print(f"  {name}: " + ", ".join(
                f"{m} {ratio:.3f}x ({r['won'][m]} of {pairs})"
                for m, ratio in r["ratio"].items() if ratio is not None))
    return 1 if failed or not line["workloads"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
