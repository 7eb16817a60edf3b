#!/usr/bin/env python
"""Crash recovery (the paper's deferred fault tolerance, as opt-in
extensions) — and why it needs *two* mechanisms.

Scenario: node 9 crashes at t=0 and silently swallows every message
sent to it, while 5 nodes compete for the CS.

1. Plain RCV: RMs hop into the black hole and their homes wait
   forever.
2. ``rm_timeout`` alone: pending RMs are relaunched, but the crashed
   node's NSIT row is a permanently *unknown vote* — with 5
   competitors the live votes split and the relative-majority
   threshold (lead > unknowns) is never reached.  Recovery of lost
   messages cannot recover lost *votes*.
3. ``rm_timeout`` + ``exclude_nodes={9}`` (an external failure
   detector's verdict, agreed by all nodes): the threshold closes
   over the live membership and everything completes.

Run:  python examples/crash_recovery.py
"""

from repro import Scenario, TraceArrivals, run_scenario
from repro.core import RCVConfig

N = 10
CRASHED = 9
REQUESTERS = range(5)
#: node CRASHED is down from t=0: a black hole for every message
BLACK_HOLE = (("crash", ((CRASHED, 0.0),)),)


def run_once(rm_timeout, exclude=frozenset()):
    config = RCVConfig(rm_timeout=rm_timeout, exclude_nodes=exclude)
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=N,
            arrivals=TraceArrivals({i: [0.0] for i in REQUESTERS}),
            seed=1,
            algo_kwargs={"config": config},
            faults=BLACK_HOLE,
            drain_deadline=5_000.0,
        ),
        require_completion=False,
    )
    return result.completed_count, result.extra["rm_relaunched"]


def main() -> None:
    total = len(list(REQUESTERS))
    print(f"{N} nodes, node {CRASHED} crashed, {total} concurrent requests\n")
    variants = (
        ("plain RCV (paper model)     ", None, frozenset()),
        ("rm_timeout only             ", 150.0, frozenset()),
        ("rm_timeout + exclude_nodes  ", 150.0, frozenset({CRASHED})),
    )
    for label, timeout, exclude in variants:
        completed, relaunches = run_once(timeout, exclude)
        print(
            f"{label}  completed {completed}/{total}   "
            f"relaunched RMs: {relaunches:4d}"
        )
    print(
        "\nMutual exclusion was monitored in all three runs.  Message-level\n"
        "recovery alone cannot beat a permanently unknown vote; membership\n"
        "exclusion closes the threshold over the live nodes (EXPERIMENTS.md F3)."
    )


if __name__ == "__main__":
    main()
