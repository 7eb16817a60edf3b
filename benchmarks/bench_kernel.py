"""Kernel benchmark — the substrate's own cost, and start-up.

The kernel has two scheduling modes, and this file measures **both**
so a future change cannot silently regress either:

* ``cancellable-handle`` — ``Simulator.schedule``: a ``Handle`` per
  event (the JSON keys keep their historical names,
  ``legacy_handle_mode`` / ``fast_over_legacy``, so the trajectory
  stays comparable);
* ``fast`` — ``Simulator.schedule_fast``: fire-once plain-tuple
  entries (the path network delivery and the workload drivers use).

Run as a script to (re)generate ``BENCH_engine.json``::

    PYTHONPATH=src python benchmarks/bench_kernel.py --json BENCH_engine.json

which records events/sec for both modes, the fast/handle ratio, and
a ``startup`` section: what a fresh interpreter pays to import the
package and print a first table (docs/performance.md, "Start-up and
footprint").  The per-event costs of the frozen suite's layers
(``sim.fast_events_per_s``, ``sim.handle_events_per_s``) are recorded
by ``benchmarks/suite/run.py``, not here.
"""

import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time

from repro.experiments.parallel import _usable_cpus
from repro.sim.kernel import Simulator

#: chain length used by the events/sec measurements
CHAIN_EVENTS = 100_000


# ----------------------------------------------------------------------
# events/sec (shared by the regression guard and the JSON report)
# ----------------------------------------------------------------------
def _run_chain(schedule, run, n):
    """Schedule+run ``n`` chained events through ``schedule``."""
    remaining = n

    def tick():
        nonlocal remaining
        if remaining > 0:
            remaining -= 1
            schedule(1.0, tick)

    schedule(1.0, tick)
    start = time.perf_counter()
    run()
    elapsed = time.perf_counter() - start
    return (n + 1) / elapsed


def events_per_sec(mode, n=CHAIN_EVENTS, repeats=5):
    """Best-of-``repeats`` events/sec for a kernel scheduling mode.

    ``mode`` is ``"fast"`` (handle-free tuples) or
    ``"cancellable-handle"``.
    """
    best = 0.0
    for _ in range(repeats):
        sim = Simulator()
        if mode == "fast":
            schedule = sim.schedule_fast
        elif mode == "cancellable-handle":
            schedule = sim.schedule
        else:
            raise ValueError(f"unknown kernel mode {mode!r}")
        best = max(best, _run_chain(schedule, sim.run, n))
    return best


def test_fast_mode_beats_legacy_mode():
    """Regression guard: the fast path must stay meaningfully ahead.

    The measured gap is ``fast_over_legacy`` in ``BENCH_engine.json``;
    asserting a conservative 1.2x keeps the guard robust to noisy CI
    machines while still catching any change that collapses the two
    paths back together.
    """
    handle = events_per_sec("cancellable-handle", n=50_000)
    fast = events_per_sec("fast", n=50_000)
    print(
        f"\nkernel events/sec: cancellable-handle={handle:,.0f} "
        f"fast={fast:,.0f} ratio={fast / handle:.2f}x"
    )
    assert fast > handle * 1.2, (
        f"fast path ({fast:,.0f} ev/s) no longer meaningfully faster "
        f"than the cancellable-handle path ({handle:,.0f} ev/s)"
    )


# ----------------------------------------------------------------------
# start-up: fresh interpreters, whole-process figures
# ----------------------------------------------------------------------
#: the suite's import set (benchmarks/suite/session.py and layers.py)
_SUITE_IMPORTS = (
    "import repro.engine, repro.verify, repro.experiments.backends, "
    "repro.experiments.cache, repro.experiments.campaign, "
    "repro.experiments.service"
)
_SUMMARIZE = (
    "import repro; from repro.metrics.summary import summarize; "
    "summarize([1.0, 2.0, 4.0])"
)
#: ``python -m repro.cli campaign --algorithms rcv --n-values 8 10
#: --seeds 3 --no-progress --out DIR``, six cells and two tables
_CAMPAIGN = (
    "import sys; from repro.cli import main; assert 0 == main(['campaign', "
    "'--algorithms', 'rcv', '--n-values', '8', '10', '--seeds', '3', "
    "'--no-progress', '--out', sys.argv[1]])"
)

#: The same probes run against the parent of the PR that took numpy and
#: scipy out of ``repro.metrics.summary`` (commit 72a5f79, both
#: installed) — the "before" column, from ``PARENT_STARTUP_HOST``.
PARENT_STARTUP_HOST = "2-vCPU shared dev container, Linux 6.18, Python 3.11.7"
PARENT_STARTUP = {
    "import_repro": {"cpu_ms": 225.5, "peak_rss_mb": 30.9},
    "import_suite_set": {"cpu_ms": 334.9, "peak_rss_mb": 38.7},
    "first_summarize": {"cpu_ms": 911.4, "rss_mb": 68.4},
    "campaign_six_cells": {"wall_s": 1.12, "peak_rss_mb": 103.9},
}


#: ``ru_maxrss`` of a child is floored at the RSS of the process that
#: forked it (exec folds the old image's high-water mark in), so the
#: child reports its own: ``VmHWM`` belongs to the image exec created.
_REPORT_RSS = (
    "; print([line.split()[1] for line in open('/proc/self/status')"
    " if line.startswith('VmHWM')][0])"
)


def _fresh(code, *args):
    """``(wall s, cpu s, peak RSS MB)`` of ``python -c code *args`` in
    a fresh interpreter: the whole process, interpreter start
    included, as a user pays it."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code + _REPORT_RSS, *args],
        capture_output=True, text=True, check=True,
    )
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return wall, cpu, int(done.stdout.split()[-1]) / 1024.0


def startup_report(repeats=5):
    """CPU and peak RSS of the things every process does first, best
    of ``repeats``, each beside the parent's figure.
    ``first_summarize`` is the difference between a process that
    imports ``repro`` and one that also summarizes three values."""

    def best(samples):
        return [min(column) for column in zip(*samples)]

    def cpu_rss(code):
        _, cpu, rss = best(_fresh(code) for _ in range(repeats))
        return {"cpu_ms": round(cpu * 1e3, 1), "peak_rss_mb": round(rss, 1)}

    imported, summarized = cpu_rss("import repro"), cpu_rss(_SUMMARIZE)
    with tempfile.TemporaryDirectory() as scratch:
        # a directory per run: a reused --out would resume from its cache
        wall, _, rss = best(
            _fresh(_CAMPAIGN, os.path.join(scratch, str(k))) for k in range(repeats)
        )
    rows = {
        "import_repro": imported,
        "import_suite_set": cpu_rss(_SUITE_IMPORTS),
        "first_summarize": {
            "cpu_ms": round(summarized["cpu_ms"] - imported["cpu_ms"], 1),
            "rss_mb": round(summarized["peak_rss_mb"] - imported["peak_rss_mb"], 1),
        },
        "campaign_six_cells": {"wall_s": round(wall, 3), "peak_rss_mb": round(rss, 1)},
    }
    for name, row in rows.items():
        row["parent"] = PARENT_STARTUP[name]
    return {
        "method": (
            f"fresh interpreters, best of {repeats}; whole-process CPU "
            "(interpreter start included) from the children's rusage, peak "
            "RSS from each child's own VmHWM"
        ),
        "parent_host": PARENT_STARTUP_HOST,
        "bare_interpreter": cpu_rss("pass"),
        **rows,
    }


def build_report():
    handle = events_per_sec("cancellable-handle")
    fast = events_per_sec("fast")
    return {
        "bench": "bench_kernel chain (schedule+run chained events)",
        "python": platform.python_version(),
        "host": platform.platform(),
        "usable_cpus": _usable_cpus(),
        "chain_events": CHAIN_EVENTS,
        "kernel_events_per_sec": {
            "legacy_handle_mode": round(handle),
            "fast_path_mode": round(fast),
            "fast_over_legacy": round(fast / handle, 2),
        },
        "startup": startup_report(),
    }


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the report to PATH (default: print to stdout)",
    )
    args = parser.parse_args(argv)
    report = build_report()
    text = json.dumps(report, indent=2) + "\n"
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
        print(f"wrote {args.json}")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
