"""Profiling harness — per-phase attribution for one cell.

The perf work on this repo is hot-path-driven (DESIGN.md §6): every
optimisation PR starts from "where does the N=200 cell actually
spend its time?".  This harness keeps that attribution *in the
repo*: it runs one cell under ``cProfile``, folds the flat profile
into the architectural phases (exchange / order / SI state / node
protocol / kernel / network / workload / metrics), and pairs the
wall-time split with the **deterministic** per-phase counters the
run itself surfaces in ``RunResult.extra`` (exchange rows merged vs
skipped, copy-on-write clones, prune scans run vs deferred, vote
tally rebuilds vs incremental reconciliations).  Seconds vary by
machine; the counters are exact and bit-for-bit reproducible, so a
perf regression shows up as a counter shift even on noisy hardware.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_profile.py --n 200 --seed 1
    PYTHONPATH=src python benchmarks/bench_profile.py --n 50 --json profile.json

or as a pytest smoke (small N, asserts the attribution machinery and
counter determinism)::

    PYTHONPATH=src python -m pytest benchmarks/bench_profile.py -q

See docs/performance.md for how to read the output.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time

from repro.metrics.counters import PROFILE_COUNTER_KEYS as COUNTER_KEYS
from repro.workload import BurstArrivals, Scenario
from repro.workload.runner import run_scenario

#: phase -> path fragments; first match wins, in order.  Mirrors the
#: layer split in ARCHITECTURE.md.
PHASES = (
    ("exchange", ("/core/exchange.py",)),
    ("order", ("/core/order.py",)),
    ("si_state", ("/core/state.py", "/core/tuples.py")),
    (
        "node_protocol",
        ("/core/node.py", "/core/messages.py", "/core/forwarding.py"),
    ),
    ("kernel", ("/sim/",)),
    ("network", ("/net/",)),
    ("workload", ("/workload/",)),
    ("metrics", ("/metrics/",)),
)

def _cell_scenario(n: int, seed: int) -> Scenario:
    return Scenario(
        algorithm="rcv", n_nodes=n, seed=seed, arrivals=BurstArrivals()
    )


def profile_cell(n: int = 50, seed: int = 0):
    """Run one burst cell under cProfile.

    Returns ``(result, stats, wall_seconds)`` — the RunResult (for
    the deterministic counters), the :class:`pstats.Stats`, and the
    profiled wall time.
    """
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = run_scenario(_cell_scenario(n, seed))
    profiler.disable()
    wall = time.perf_counter() - start
    return result, pstats.Stats(profiler), wall


def phase_split(stats: pstats.Stats):
    """Fold a flat profile into the architectural phases.

    Returns ``{phase: {"seconds": tottime_sum, "calls": ncalls_sum}}``
    with an ``"other"`` bucket for everything unmatched (builtins,
    stdlib, the harness itself).
    """
    split = {name: {"seconds": 0.0, "calls": 0} for name, _ in PHASES}
    split["other"] = {"seconds": 0.0, "calls": 0}
    for (filename, _lineno, _func), (
        _cc,
        ncalls,
        tottime,
        _cumtime,
        _callers,
    ) in stats.stats.items():
        bucket = "other"
        for name, fragments in PHASES:
            if any(frag in filename for frag in fragments):
                bucket = name
                break
        split[bucket]["seconds"] += tottime
        split[bucket]["calls"] += ncalls
    for entry in split.values():
        entry["seconds"] = round(entry["seconds"], 4)
    return split


def counter_block(result) -> dict:
    """The deterministic per-phase counters of one run."""
    extra = result.extra
    return {key: extra[key] for key in COUNTER_KEYS if key in extra}


def build_report(n: int = 50, seed: int = 0) -> dict:
    result, stats, wall = profile_cell(n=n, seed=seed)
    return {
        "bench": f"bench_profile — rcv burst cell, N={n}, seed={seed}",
        "wall_seconds_profiled": round(wall, 4),
        "phases": phase_split(stats),
        "counters": counter_block(result),
    }


# ----------------------------------------------------------------------
# pytest smoke
# ----------------------------------------------------------------------
def test_profile_attribution_smoke():
    """The fold covers the protocol phases and the counters are
    deterministic (bit-for-bit identical across runs)."""
    result, stats, _wall = profile_cell(n=12, seed=0)
    split = phase_split(stats)
    assert split["exchange"]["calls"] > 0
    assert split["order"]["calls"] > 0
    assert split["si_state"]["calls"] > 0
    assert split["kernel"]["calls"] > 0
    counters = counter_block(result)
    for key in COUNTER_KEYS:
        assert key in counters, f"missing deterministic counter {key}"
    assert counters["exchanges"] > 0
    assert (
        counters["exch_rows_merged"] + counters["exch_rows_skipped"]
        == counters["exchanges"] * 12
    )
    # Exact reproducibility: the counters are simulation outputs, not
    # measurements.
    repeat = counter_block(run_scenario(_cell_scenario(12, 0)))
    assert repeat == counters


def _render(report: dict) -> str:
    lines = [report["bench"]]
    lines.append(
        f"profiled wall: {report['wall_seconds_profiled']:.3f}s "
        "(includes profiler overhead)"
    )
    lines.append(f"{'phase':>14}  {'seconds':>9}  {'calls':>10}")
    phases = sorted(
        report["phases"].items(), key=lambda kv: -kv[1]["seconds"]
    )
    for name, entry in phases:
        lines.append(
            f"{name:>14}  {entry['seconds']:>9.4f}  {entry['calls']:>10,}"
        )
    lines.append("deterministic counters:")
    for key, value in report["counters"].items():
        lines.append(f"  {key} = {value}")
    return "\n".join(lines)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=50, help="node count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the report as JSON",
    )
    args = parser.parse_args(argv)
    report = build_report(n=args.n, seed=args.seed)
    print(_render(report))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
