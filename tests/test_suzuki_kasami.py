"""Tests for the Suzuki–Kasami broadcast-token baseline."""

import pytest

from repro.net.delay import UniformDelay
from repro.workload import BurstArrivals, PoissonArrivals, Scenario, run_scenario
from tests.conftest import started_engine


def test_initial_holder_enters_for_free():
    engine = started_engine("suzuki_kasami", 4)
    engine.drivers[0].issue()  # node 0 starts with the token
    assert engine.nodes[0].cs_count == 0
    engine.sim.run()
    assert engine.nodes[0].cs_count == 1
    assert engine.network.stats.sent_total == 0


def test_non_holder_costs_n_messages():
    """N-1 REQUEST broadcasts + 1 token transfer."""
    engine = started_engine("suzuki_kasami", 5)
    engine.drivers[3].issue()
    engine.sim.run()
    assert engine.nodes[3].cs_count == 1
    assert engine.network.stats.by_kind["REQUEST"] == 4
    assert engine.network.stats.by_kind["TOKEN"] == 1


def test_token_queue_serves_fifo_of_outstanding_requests():
    engine = started_engine("suzuki_kasami", 4)
    # 1, 2, 3 all request while 0 idles with the token.
    for i in (1, 2, 3):
        engine.drivers[i].issue()
    engine.sim.run()
    assert [n for _, n in engine.safety.grant_log] == [1, 2, 3]
    assert all(engine.nodes[i].cs_count == 1 for i in (1, 2, 3))


def test_nme_bounded_by_n_under_load():
    for n in (5, 10, 20):
        result = run_scenario(
            Scenario(
                algorithm="suzuki_kasami",
                n_nodes=n,
                arrivals=BurstArrivals(requests_per_node=2),
                seed=1,
            )
        )
        assert result.nme <= n + 0.01


def test_stale_request_does_not_steal_token():
    """Sequence numbers deduplicate: an old REQUEST arriving after the
    request was served must not trigger another token pass."""
    engine = started_engine("suzuki_kasami", 3, hold=1.0)
    nodes = engine.nodes
    from repro.baselines.suzuki_kasami import SkRequest

    engine.drivers[1].issue()
    engine.sim.run()
    assert nodes[1].cs_count == 1  # token now at node 1
    # replay node 1's old request at the new holder
    before = engine.network.stats.sent_total
    nodes[1].on_message(2, SkRequest(origin=1, seq=1))
    assert engine.network.stats.sent_total == before


def test_broadcast_alias_resolves():
    result = run_scenario(
        Scenario(algorithm="broadcast", n_nodes=4, arrivals=BurstArrivals())
    )
    assert result.completed_count == 4


def test_non_fifo_tolerance():
    result = run_scenario(
        Scenario(
            algorithm="suzuki_kasami",
            n_nodes=8,
            arrivals=PoissonArrivals(rate=1 / 8.0),
            seed=4,
            delay_model=UniformDelay(1.0, 9.0),
            issue_deadline=2_000,
            drain_deadline=8_000,
        )
    )
    assert result.all_completed()


def test_unsolicited_token_raises():
    nodes = started_engine("suzuki_kasami", 2).nodes
    from repro.baselines.suzuki_kasami import SkToken

    with pytest.raises(RuntimeError, match="unsolicited"):
        nodes[1].on_message(0, SkToken([0, 0], []))
