"""A-REC — crash-recovery ablation (extensions to the paper's model).

Quantifies EXPERIMENTS.md F3 on the standard crash scenario (N=10,
one crashed idle node, 5 concurrent requesters, 8 seeds):

* plain RCV (paper model) — requests whose RM enters the black hole
  stall; split votes stall even surviving requests;
* ``rm_timeout`` — recovers lost messages, not lost votes;
* ``rm_timeout + exclude_nodes`` — full recovery; also reports the
  message overhead the extensions cost on a *healthy* network.
"""

from benchmarks.conftest import report
from repro.core import RCVConfig
from repro.experiments import render_rows
from repro.workload import BurstArrivals, Scenario, TraceArrivals, run_scenario

N = 10
CRASHED = 9
REQUESTERS = 5
SEEDS = range(8)
#: node CRASHED is down from t=0: a black hole for every message
BLACK_HOLE = (("crash", ((CRASHED, 0.0),)),)


def _crash_run(seed, config):
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=N,
            arrivals=TraceArrivals({i: [0.0] for i in range(REQUESTERS)}),
            seed=seed,
            algo_kwargs={"config": config},
            faults=BLACK_HOLE,
            drain_deadline=5_000.0,
        ),
        require_completion=False,
    )
    return (
        result.completed_count,
        result.extra["rm_relaunched"],
        result.messages_total,
    )


def _healthy_overhead(config):
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=N,
            arrivals=BurstArrivals(),
            seed=0,
            algo_kwargs={"config": config},
        )
    )
    return result.messages_total


def _measure():
    variants = [
        ("plain (paper model)", RCVConfig()),
        ("rm_timeout=150", RCVConfig(rm_timeout=150.0)),
        (
            "rm_timeout + exclude",
            RCVConfig(rm_timeout=150.0, exclude_nodes=frozenset({CRASHED})),
        ),
    ]
    rows = []
    for label, config in variants:
        done = relaunched = msgs = 0
        for seed in SEEDS:
            d, r, m = _crash_run(seed, config)
            done += d
            relaunched += r
            msgs += m
        healthy_cfg = (
            config
            if not config.exclude_nodes
            else RCVConfig(rm_timeout=config.rm_timeout)
        )
        rows.append(
            {
                "variant": label,
                "completed": f"{done}/{REQUESTERS * len(list(SEEDS))}",
                "relaunched RMs": relaunched,
                "crash-run msgs": msgs,
                "healthy msgs": _healthy_overhead(healthy_cfg),
            }
        )
    return rows


def test_recovery_ablation(benchmark):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    report(
        render_rows(
            rows,
            title=(
                f"Crash recovery ablation (N={N}, node {CRASHED} crashed, "
                f"{REQUESTERS} requesters, {len(list(SEEDS))} seeds)"
            ),
        )
    )
    full = next(r for r in rows if "exclude" in r["variant"])
    total = REQUESTERS * len(list(SEEDS))
    assert full["completed"] == f"{total}/{total}"
    plain = next(r for r in rows if "plain" in r["variant"])
    assert plain["completed"] != full["completed"]
    # the extensions are nearly free on a healthy network (a timeout
    # shorter than the worst-case burst response can fire spuriously
    # and costs a handful of idempotent duplicates)
    assert full["healthy msgs"] <= plain["healthy msgs"] * 1.1
