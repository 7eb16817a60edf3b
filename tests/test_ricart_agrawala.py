"""Tests for the Ricart–Agrawala baseline."""

import pytest

from repro.mutex.base import NodeState
from repro.net.delay import UniformDelay
from repro.workload import (
    BurstArrivals,
    PoissonArrivals,
    Scenario,
    TraceArrivals,
    run_scenario,
)
from tests.conftest import started_engine


def test_exactly_two_n_minus_one_messages_per_cs():
    """[13]: the message count is a constant 2(N-1)."""
    for n in (3, 7, 12):
        result = run_scenario(
            Scenario(
                algorithm="ricart_agrawala",
                n_nodes=n,
                arrivals=BurstArrivals(),
                seed=0,
            )
        )
        assert result.nme == pytest.approx(2 * (n - 1))


def test_uncontended_round_trip():
    engine = started_engine("ricart_agrawala", 3)
    engine.drivers[1].issue()
    engine.sim.run()
    assert engine.nodes[1].cs_count == 1
    # request at t=0, replies at t=10 => 2 Tn to enter
    assert engine.safety.grant_log[0][0] == 10.0


def test_lower_timestamp_wins_conflict():
    # Node 1 requests first; node 0 requests after node 1's REQUEST
    # reached it (t=5), so node 0's Lamport clock has advanced and its
    # request genuinely carries a larger timestamp.
    engine = started_engine(
        "ricart_agrawala", 2, arrivals=TraceArrivals({1: [0.0], 0: [6.0]})
    )
    engine.sim.run()
    assert [n for _, n in engine.safety.grant_log] == [1, 0]


def test_id_breaks_timestamp_tie():
    engine = started_engine("ricart_agrawala", 2)
    engine.drivers[0].issue()
    engine.drivers[1].issue()  # same simulated instant, same ts
    engine.sim.run()
    assert [n for _, n in engine.safety.grant_log] == [0, 1]


def test_deferred_reply_sent_on_release():
    engine = started_engine("ricart_agrawala", 2)
    nodes = engine.nodes
    engine.drivers[0].issue()
    engine.drivers[1].issue()
    # t=5: requests cross; node 1 replies (node 0 outranks by id),
    # node 0 defers; t=10: node 0 receives the reply and enters.
    engine.sim.run(until=10.5)
    assert nodes[0].state is NodeState.IN_CS
    assert 1 in nodes[0]._deferred
    engine.sim.run()
    assert nodes[1].cs_count == 1


def test_non_fifo_tolerance():
    result = run_scenario(
        Scenario(
            algorithm="ricart_agrawala",
            n_nodes=9,
            arrivals=PoissonArrivals(rate=1 / 8.0),
            seed=2,
            delay_model=UniformDelay(1.0, 9.0),
            issue_deadline=2_000,
            drain_deadline=8_000,
        )
    )
    assert result.all_completed()


def test_single_node():
    result = run_scenario(
        Scenario(algorithm="ricart_agrawala", n_nodes=1, arrivals=BurstArrivals())
    )
    assert result.completed_count == 1
    assert result.messages_total == 0
