#!/usr/bin/env python
"""Demonstrate the paper's non-FIFO tolerance claim.

The same heavy Poisson workload is run over three networks:

1. the paper's constant-delay network (inherently ordered),
2. uniformly jittered delays with no ordering guarantee (messages
   overtake each other),
3. heavy-tailed exponential delays (aggressive reordering).

A network tap counts actual overtakings per ordered node pair.  RCV
completes every request with mutual exclusion intact in all three —
no extra machinery, matching §1's claim that out-of-order delivery
has "no impact on the algorithm's correctness".

Run:  python examples/nonfifo_resilience.py
"""

from collections import defaultdict

from repro import (
    ConstantDelay,
    Engine,
    ExponentialDelay,
    PoissonArrivals,
    Scenario,
    UniformDelay,
)

NETWORKS = [
    ("constant Tn=5 (paper)", ConstantDelay(5.0)),
    ("uniform [1, 9]", UniformDelay(1.0, 9.0)),
    ("exponential mean 5", ExponentialDelay(5.0)),
]


def run_with_reorder_counter(delay_model):
    last_delivery = defaultdict(float)
    reorderings = 0

    def watch(src, dst, message, deliver_at):
        nonlocal reorderings
        if deliver_at < last_delivery[(src, dst)]:
            reorderings += 1
        last_delivery[(src, dst)] = max(last_delivery[(src, dst)], deliver_at)

    engine = Engine(
        Scenario(
            algorithm="rcv",
            n_nodes=12,
            arrivals=PoissonArrivals(rate=1 / 5.0),  # heavy demand
            seed=11,
            delay_model=delay_model,
            issue_deadline=4_000,
            drain_deadline=16_000,
        )
    )
    engine.network.add_tap(watch)
    result = engine.run(require_completion=False)
    return result, reorderings


def main() -> None:
    for label, delay_model in NETWORKS:
        result, reorderings = run_with_reorder_counter(delay_model)
        ok = result.all_completed()
        print(
            f"{label:24s} | CS executions: {result.completed_count:4d} | "
            f"overtaking deliveries: {reorderings:5d} | "
            f"all requests served: {'yes' if ok else 'NO'} | "
            f"NME {result.nme:5.2f}"
        )
    print(
        "\nMutual exclusion was monitored throughout (a violation raises);"
        "\nreordering cost nothing but slightly different message counts."
    )


if __name__ == "__main__":
    main()
