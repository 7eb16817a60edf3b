#!/usr/bin/env python
"""Annotated walkthrough of one RCV run (§4 of the paper, live).

Four nodes request the CS simultaneously.  The trace shows the three
message types doing their jobs:

* RM — roams with a growing view of the system until its home node
  can be *ordered* by Relative Consensus Voting;
* IM — tells an ordered node who enters the CS right after it;
* EM — the single wake-up hop between consecutive CS executions
  (the paper's "minimal synchronization delay").

Run:  python examples/trace_walkthrough.py
"""

from repro import BurstArrivals, Engine, Scenario
from repro.trace import TraceRecorder

ANNOTATIONS = {
    "RM": "request roams, carrying votes",
    "IM": "predecessor learns its successor",
    "EM": "one-hop wake-up: enter the CS",
}


def main() -> None:
    engine = Engine(
        Scenario(algorithm="rcv", n_nodes=4, arrivals=BurstArrivals(), seed=0)
    )
    recorder = TraceRecorder(engine)
    result = engine.run()

    print("time        event")
    print("-" * 72)
    for event in recorder.events:
        if event.category == "send":
            note = ANNOTATIONS.get(event.kind, "")
            print(f"{event.render()}   <- {note}")
        else:
            print(f"{event.render()}")
    print("-" * 72)
    print(
        f"{result.completed_count} CS executions, NME={result.nme:.2f}, "
        f"sync delay={result.mean_sync_delay:.1f} (=Tn)"
    )
    em_count = len(recorder.filter(kind="EM"))
    print(f"exactly one EM per CS entry: {em_count} EMs")


if __name__ == "__main__":
    main()
