"""A-FIFO — the non-FIFO tolerance claim (paper §1).

The same heavy Poisson workload runs over (a) the paper's constant
delay, (b) jittered delays with raw (reordering) channels, and
(c) jittered delays with enforced FIFO.  The claim reproduced: RCV
needs no ordering guarantee — correctness holds and the metric shifts
are those of the delay distribution, not of reordering (compare b
against c: same delays, ordering on/off).
"""

from benchmarks.conftest import report
from repro.experiments import render_rows
from repro.metrics import summarize
from repro.net.delay import ConstantDelay, UniformDelay
from repro.workload import PoissonArrivals, Scenario, run_scenario

CONFIGS = [
    ("constant, raw", ConstantDelay(5.0), False),
    ("uniform[1,9], raw (reordering)", UniformDelay(1.0, 9.0), False),
    ("uniform[1,9], fifo", UniformDelay(1.0, 9.0), True),
]


def _measure():
    rows = []
    for label, delay, fifo in CONFIGS:
        runs = [
            run_scenario(
                Scenario(
                    algorithm="rcv",
                    n_nodes=16,
                    arrivals=PoissonArrivals(rate=1 / 5.0),
                    seed=seed,
                    delay_model=delay,
                    fifo=fifo,
                    issue_deadline=5_000,
                    drain_deadline=20_000,
                )
            )
            for seed in (0, 1, 2)
        ]
        rows.append(
            {
                "network": label,
                "completed": sum(r.completed_count for r in runs),
                "NME": str(summarize(r.nme for r in runs)),
                "response": str(summarize(r.mean_response_time for r in runs)),
                "inconsistencies": sum(
                    r.extra["nonl_inconsistencies"] for r in runs
                ),
            }
        )
    return rows


def test_nonfifo_robustness(benchmark):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    report(render_rows(rows, title="RCV under non-FIFO delivery (N=16, heavy)"))
    assert all(r["inconsistencies"] == 0 for r in rows)
    # Reordering must not change throughput materially vs FIFO at the
    # same delay distribution.
    raw = next(r for r in rows if "raw (reordering)" in r["network"])
    fifo = next(r for r in rows if "fifo" in r["network"])
    assert abs(raw["completed"] - fifo["completed"]) / fifo["completed"] < 0.1
