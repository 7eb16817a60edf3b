"""Shipped protocol path vs the in-tree reference — one comparison.

The RCV Exchange/Order machinery is incremental: copy-on-write
snapshots, reference-adoption of fresher rows, watermark-amortised
pruning, and a live vote histogram (see docs/protocol.md,
"Performance model").  The historical full-snapshot implementation
is preserved verbatim in :mod:`repro.core.reference`, and
``full_snapshot_mode()`` runs whole scenarios on it (its cost tracks
the seed tree's), so every speed-up over it is measured without git
history.

:func:`shipped_vs_reference` is the one harness: it times a list of
RCV burst cells on the shipped path and under
``full_snapshot_mode()``, interleaved, best of k, and asserts that
both sides send the same messages (the optimisation must be
bit-for-bit invisible; ``tests/test_reference_matrix.py`` enforces it,
this re-asserts it on the timed cells).  :data:`FLOORS` names its
three uses — the fig-4 sweep, the N=50 sweep and the N=200 cell —
and the three guard tests assert a conservative floor under each, so
noisy CI machines do not flake while a path that collapses back to
full-snapshot cost still fails loudly.

Run as a script to (re)generate ``BENCH_protocol.json``::

    PYTHONPATH=src python benchmarks/bench_protocol.py --json BENCH_protocol.json

which records one row per floor and the per-cell seconds of the
shipped path at N in {50, 100, 200}.
"""

import json
import math
import platform
import time

from repro.core.reference import full_snapshot_mode
from repro.experiments.parallel import CellSpec, _usable_cpus
from repro.workload import run_scenario

#: report key -> (node counts, seeds, best-of repeats, floor).  The
#: keys are the historical names of the three recorded ratios; the
#: measured values are the ``reference`` rows of ``BENCH_protocol.json``.
FLOORS = {
    # the paper's burst sweep
    "fig4_sweep_speedup_over_full_snapshot": ((5, 10, 20, 30), (0, 1, 2), 3, 1.2),
    # the same sweep at the post-paper scale
    "incremental_over_baseline": ((50,), (0, 1, 2), 3, 1.8),
    # one campaign-scale cell: the advantage grows with N
    "n200_speedup_over_full_snapshot": ((200,), (0,), 1, 2.0),
}

#: per-cell seconds of the shipped path, one pass over every seed
PER_CELL_N_VALUES = (50, 100, 200)
PER_CELL_SEEDS = (0, 1, 2)


def burst_cells(n_values, seeds):
    """The RCV burst cells of an ``n_values`` x ``seeds`` grid."""
    return [
        CellSpec("rcv", n, seed, ("burst", 1)) for n in n_values for seed in seeds
    ]


def _timed(cells):
    """``(seconds, messages)`` of running ``cells`` the way campaign
    workers run them."""
    start = time.perf_counter()
    messages = sum(
        run_scenario(cell.build_scenario()).messages_total for cell in cells
    )
    return time.perf_counter() - start, messages


def shipped_vs_reference(cells, repeats):
    """Best-of-``repeats`` seconds of ``cells`` on the shipped path and
    under ``full_snapshot_mode()``: ``(shipped_s, reference_s,
    messages)``.

    The two sides alternate, so they share thermal and frequency
    conditions; best-of filters scheduler noise; a small cell runs
    once beforehand to warm imports and the allocator.
    """
    _timed(burst_cells((5,), (0,)))
    shipped = reference = math.inf
    for _ in range(repeats):
        seconds, messages = _timed(cells)
        shipped = min(shipped, seconds)
        with full_snapshot_mode():
            seconds, reference_messages = _timed(cells)
        reference = min(reference, seconds)
        assert messages == reference_messages, (
            f"message counts diverged: shipped={messages} "
            f"reference={reference_messages}"
        )
    return shipped, reference, messages


def floor_row(key):
    """One :data:`FLOORS` entry measured: the ``BENCH_protocol.json`` row."""
    n_values, seeds, repeats, floor = FLOORS[key]
    shipped, reference, messages = shipped_vs_reference(
        burst_cells(n_values, seeds), repeats
    )
    return {
        "n_values": list(n_values),
        "seeds": list(seeds),
        "best_of": repeats,
        "messages": messages,
        "shipped_seconds": round(shipped, 4),
        "reference_seconds": round(reference, 4),
        "ratio": round(reference / shipped, 2),
        "floor": floor,
    }


def _assert_floor(key):
    row = floor_row(key)
    print(
        f"\n{key}: reference={row['reference_seconds']:.3f}s "
        f"shipped={row['shipped_seconds']:.3f}s ratio={row['ratio']:.2f}x "
        f"({row['messages']} msgs)"
    )
    assert row["ratio"] > row["floor"], (
        f"shipped path ({row['shipped_seconds']:.3f}s) lost the "
        f"{row['floor']}x floor over the full-snapshot reference "
        f"({row['reference_seconds']:.3f}s) on {key}"
    )


def test_fig4_sweep_beats_seed():
    """Floor guard for the end-to-end figure-4 sweep (>= 1.2x)."""
    _assert_floor("fig4_sweep_speedup_over_full_snapshot")


def test_incremental_beats_full_snapshot():
    """Floor guard for the N=50 burst sweep (>= 1.8x)."""
    _assert_floor("incremental_over_baseline")


def test_per_cell_n200_beats_seed():
    """Floor guard for one N=200 burst cell, the same cell on both
    sides (>= 2x)."""
    _assert_floor("n200_speedup_over_full_snapshot")


# ----------------------------------------------------------------------
# BENCH_protocol.json report
# ----------------------------------------------------------------------
def build_report():
    seeds = PER_CELL_SEEDS
    return {
        "bench": (
            "bench_protocol: RCV burst cells on the shipped path vs "
            "full_snapshot_mode(), interleaved, best of k"
        ),
        "python": platform.python_version(),
        "host": platform.platform(),
        "usable_cpus": _usable_cpus(),
        "reference": {key: floor_row(key) for key in FLOORS},
        "per_cell": {
            "n_values": list(PER_CELL_N_VALUES),
            "seeds": list(seeds),
            "fresh_seconds": {
                str(n): round(_timed(burst_cells((n,), seeds))[0] / len(seeds), 3)
                for n in PER_CELL_N_VALUES
            },
        },
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
