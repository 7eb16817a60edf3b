#!/usr/bin/env python3
"""One benchmark for the whole stack.

    python3 benchmarks/suite/run.py [--workload NAME ...] [--seed S]
        [--seconds T] [--trace [0|1]] [--size full|toy] [--json OUT]
        [--check-repeat] [--regen-golden]

One ``--workload`` is measured in this process and ends with the
one-line JSON result ``BENCHMARK.json``'s contract describes: the
end-to-end metrics with ``--trace 0`` (the default), the per-layer
metrics with ``--trace 1``.  Several workloads, or none (meaning all
seven), each run in a subprocess of their own, one after the other,
and a summary table follows.  ``--check-repeat`` runs two such sets
and fails if any end-to-end metric differs between them by more than
its bound.  See ``README.md`` for the workloads, the metrics and how
they interact.

The program is measured where it stands: ``src/`` of this checkout is
put on ``sys.path`` (no ``PYTHONPATH`` needed).  A checkout without
``src/repro`` has nothing to measure and the command exits non-zero
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent


def _parse(argv) -> argparse.Namespace:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", action="extend", default=None,
                        metavar="NAME", help="default: all seven")
    parser.add_argument("--seed", type=int, default=0,
                        help="offsets every scenario seed (held-out: 1)")
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"],
                        help="how long the timed loops run")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1,
                        default=0, help="1: the traced run and per-layer metrics")
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: the smoke test's sizes")
    parser.add_argument("--json", metavar="OUT", help="also write the results here")
    parser.add_argument("--check-repeat", action="store_true",
                        help="two full sets must agree within the bounds")
    parser.add_argument("--regen-golden", action="store_true",
                        help="rewrite golden.json from this checkout's outputs")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.declared = declared
    return args


def _load_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmarks/suite: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    for path in (SUITE, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


# ----------------------------------------------------------------------
# several workloads: one subprocess each
# ----------------------------------------------------------------------
def _run_set(args) -> dict:
    """Each workload in its own interpreter, sequentially; returns
    ``{workload: result document}`` (a workload that printed no
    result maps to ``None``)."""
    results = {}
    for name in args.workload:
        command = [
            sys.executable, str(SUITE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
        lines = done.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            results[name] = None
    return results


def _summary(results: dict, table: bool) -> int:
    """Print one line per workload (and, for end-to-end results, the
    metrics as a table); returns how many workloads failed."""
    print("\nsummary")
    failures = 0
    for name, result in results.items():
        if result is None:
            print(f"  {name}: NO RESULT")
            failures += 1
            continue
        share = result["failed"] / result["attempted"]
        print(f"  {name}: attempted {result['attempted']} failed {result['failed']} "
              f"failed_share {share:.4f}")
        failures += not result["correct"]
    if table:
        names = sorted({m for r in results.values() if r for m in r["metrics"]})
        width = max(len(n) for n in results)
        print(f"  {'':<{width}} " + " ".join(f"{n:>12}" for n in names))
        for name, result in results.items():
            if result:
                cells = (f"{result['metrics'][n]['value']:>12.5g}" for n in names)
                print(f"  {name:<{width}} " + " ".join(cells))
    return failures


def _compare_sets(first: dict, second: dict, declared: dict) -> int:
    """How many (workload, end-to-end metric) pairs of ``second`` are
    worse than ``first`` by more than the metric's bound."""
    print("\ncheck-repeat: second set against the first")
    beyond = 0
    for metric in declared["end_to_end"]:
        for name in first:
            if not (first[name] and second[name]):
                beyond += 1
                continue
            a = first[name]["metrics"][metric["name"]]["value"]
            b = second[name]["metrics"][metric["name"]]["value"]
            change = (b - a) / a
            worse = change if metric["better"] == "lower" else -change
            flag = "BEYOND BOUND" if worse > metric["bound"] else "ok"
            beyond += worse > metric["bound"]
            print(f"  {name:<18} {metric['name']:<12} {a:>12.5g} {b:>12.5g} "
                  f"{change:>+8.2%} (bound {metric['bound']:.0%}) {flag}")
    return beyond


def main(argv=None) -> int:
    args = _parse(argv)
    _load_program()
    import golden
    import session
    import workloads

    args.workload = list(dict.fromkeys(args.workload or workloads.WORKLOADS))
    for name in args.workload:
        if name not in workloads.WORKLOADS:
            raise workloads.UnknownWorkloadError(
                f"unknown workload {name!r}; choices: {sorted(workloads.WORKLOADS)}")
    if args.regen_golden:
        return golden.regenerate()
    if len(args.workload) == 1 and not args.check_repeat:
        if args.worker:
            return session.worker(args.workload[0], args.seed, args.seconds, args.size)
        return session.run_workload(
            args.workload[0], args.seed, args.seconds, bool(args.trace),
            args.size, args.declared,
        )
    first = _run_set(args)
    failures = _summary(first, table=not args.trace)
    document = {"seed": args.seed, "trace": args.trace, "results": first}
    if args.check_repeat:
        second = _run_set(args)
        failures += _summary(second, table=not args.trace)
        failures += _compare_sets(first, second, args.declared)
        document["repeat"] = second
    if args.json:
        Path(args.json).write_text(json.dumps(document, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
