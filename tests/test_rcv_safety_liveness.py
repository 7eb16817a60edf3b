"""Integration tests for RCV's correctness theorems (§5).

Theorem 1 (mutual exclusion) is enforced *during* every run by the
SafetyMonitor; Theorems 2–3 (deadlock/starvation freedom) by
``run_scenario(require_completion=True)``.  These tests sweep loads,
system sizes, seeds and both RCV rules; any violation fails loudly.
"""

import pytest

from repro.core import RCVConfig
from repro.net.delay import ConstantDelay
from repro.workload import (
    BurstArrivals,
    PoissonArrivals,
    Scenario,
    TraceArrivals,
    run_scenario,
)


@pytest.mark.parametrize("rule", ["strict", "paper"])
@pytest.mark.parametrize("n", [2, 3, 5, 9, 17, 30])
def test_burst_all_nodes_once(rule, n):
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=n,
            arrivals=BurstArrivals(),
            seed=n,
            algo_kwargs={"config": RCVConfig(rule=rule)},
        )
    )
    assert result.completed_count == n
    assert result.extra["rm_parked"] == 0
    assert result.extra["nonl_inconsistencies"] == 0


@pytest.mark.parametrize("seed", range(4))
def test_repeated_burst_rounds(seed):
    """Every node requests 4 times back-to-back: sustained heavy load
    with watermark turnover across rounds."""
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=8,
            arrivals=BurstArrivals(requests_per_node=4),
            seed=seed,
        )
    )
    assert result.completed_count == 32
    assert result.extra["rm_parked"] == 0


@pytest.mark.parametrize("rule", ["strict", "paper"])
def test_heavy_poisson(rule):
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=12,
            arrivals=PoissonArrivals(rate=1 / 3.0),  # saturating
            seed=7,
            issue_deadline=2_000,
            drain_deadline=10_000,
            algo_kwargs={"config": RCVConfig(rule=rule)},
        )
    )
    assert result.completed_count > 50
    assert result.extra["nonl_inconsistencies"] == 0


def test_light_poisson_many_idle_gaps():
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=6,
            arrivals=PoissonArrivals(rate=1 / 500.0),  # mostly idle
            seed=3,
            issue_deadline=20_000,
            drain_deadline=60_000,
        )
    )
    assert result.all_completed()
    assert result.completed_count >= 6


def test_staggered_trace_pairs():
    """Two nodes colliding exactly, repeatedly — the minimal conflict."""
    times = {0: [0.0, 100.0, 200.0], 1: [0.0, 100.0, 200.0]}
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=4,
            arrivals=TraceArrivals(times),
            seed=0,
            drain_deadline=2_000,
        )
    )
    assert result.completed_count == 6


def test_adversarial_trace_joins_mid_decision():
    """A third node requests exactly when the first two are mid-vote
    (one propagation delay in)."""
    times = {0: [0.0], 1: [0.0], 2: [5.0], 3: [7.5], 4: [12.5]}
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=5,
            arrivals=TraceArrivals(times),
            seed=2,
            drain_deadline=2_000,
        )
    )
    assert result.completed_count == 5


def test_rcv_sync_delay_is_single_hop():
    """§6.1.2: the synchronization delay equals Tn exactly — one EM
    between consecutive executions (constant-delay network)."""
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=10,
            arrivals=BurstArrivals(),
            seed=1,
            delay_model=ConstantDelay(5.0),
        )
    )
    assert result.sync_delays, "expected contended handoffs"
    assert all(d == pytest.approx(5.0) for d in result.sync_delays)


def test_fairness_requests_do_not_starve_under_asymmetric_load():
    """One node requests rarely among 7 aggressive ones; its requests
    must still complete (Theorem 3) with bounded response time."""
    times = {i: [float(5 * i + k * 40) for k in range(40)] for i in range(7)}
    times[7] = [500.0, 1000.0]  # the meek node
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=8,
            arrivals=TraceArrivals(times),
            seed=0,
            drain_deadline=60_000,
        )
    )
    meek = [r for r in result.records if r.node_id == 7]
    assert len(meek) == 2 and all(r.completed for r in meek)
    # Bounded by a full rotation of the 8-node system plus slack.
    assert all(r.response_time < 8 * (5 + 10) * 3 for r in meek)


def test_message_complexity_worst_case_bound():
    """Lemma 3: no RM is forwarded more than N-1 times."""
    from repro.core.messages import RequestMessage
    from repro.engine import Engine

    max_hops = [0]

    def watch(src, dst, msg, at):
        if isinstance(msg, RequestMessage):
            max_hops[0] = max(max_hops[0], msg.hops)

    n = 12
    engine = Engine(
        Scenario(
            algorithm="rcv",
            n_nodes=n,
            arrivals=PoissonArrivals(rate=1 / 4.0),
            seed=5,
            issue_deadline=2_000,
            drain_deadline=8_000,
        )
    )
    engine.network.add_tap(watch)
    result = engine.run(require_completion=False)
    assert result.all_completed()
    assert max_hops[0] <= n - 1
