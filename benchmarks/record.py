#!/usr/bin/env python3
"""Append one line to the performance trajectory, ``BENCH_history.jsonl``.

    python3 benchmarks/record.py [--note TEXT] [--out PATH]
        [--workload NAME ...] [--size full|toy] [--seconds T]

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
minutes; CI does not run it.  Each PR that claims a speed-up appends a
line for its parent and one for itself, taken back to back on one host,
so the file answers "noise or regression?" without re-running history.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent
ROOT = BENCHMARKS.parent
HISTORY = ROOT / "BENCH_history.jsonl"


def _git(*args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False
    )
    return done.stdout.strip()


def suite(workloads, size: str, seconds) -> dict:
    """``{workload: {correct, attempted, failed, metrics: {name: value}}}``,
    each workload from ``run.py --workload NAME`` in its own process
    (the last line it prints is its result; ``None`` if it printed
    none)."""
    if not workloads:
        sys.path.insert(0, str(BENCHMARKS / "suite"))
        from workloads import WORKLOADS

        workloads = list(WORKLOADS)
    results = {}
    for name in workloads:
        command = [sys.executable, str(BENCHMARKS / "suite" / "run.py"),
                   "--workload", name, "--size", size]
        if seconds is not None:
            command += ["--seconds", str(seconds)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        results[name] = None if result is None else {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m: v["value"] for m, v in result["metrics"].items()},
        }
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


def record(workloads=None, size="full", seconds=None, note="") -> dict:
    """The line for this checkout: its ``src/`` and ``benchmarks/`` go
    first on ``sys.path``, as ``run.py`` puts them for the suite."""
    for path in (BENCHMARKS, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from repro.experiments.parallel import _usable_cpus

    return {
        "commit": _git("rev-parse", "--short", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "usable_cpus": _usable_cpus(),
        "platform": platform.platform(),
        "note": note,
        "size": size,
        "seconds": seconds,
        "workloads": suite(workloads, size, seconds),
        "floors": floors() if size == "full" else None,
    }


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
    args = parser.parse_args(argv)
    line = record(args.workload, args.size, args.seconds, args.note)
    with args.out.open("a", encoding="utf-8") as out:
        out.write(json.dumps(line, sort_keys=True) + "\n")
    failed = [name for name, r in line["workloads"].items() if not (r and r["correct"])]
    print(f"appended to {args.out}: {len(line['workloads'])} workloads"
          + (f", NOT CORRECT: {failed}" if failed else ""))
    return 1 if failed or not line["workloads"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
