"""Tests for Lamport's timestamp-queue baseline."""

import pytest

from repro.net.delay import UniformDelay
from repro.workload import (
    BurstArrivals,
    PoissonArrivals,
    Scenario,
    TraceArrivals,
    run_scenario,
)
from tests.conftest import started_engine


def test_three_n_minus_one_messages():
    """[7]: REQUEST + REPLY + RELEASE to/from every peer."""
    for n in (3, 6, 10):
        result = run_scenario(
            Scenario(
                algorithm="lamport", n_nodes=n, arrivals=BurstArrivals(), seed=0
            )
        )
        assert result.nme == pytest.approx(3 * (n - 1))


def test_grants_follow_timestamp_order():
    # Stagger requests beyond one propagation delay so each later
    # request causally follows the earlier one (Lamport clocks only
    # order causally related events; simultaneous requests tie and
    # break by node id).
    engine = started_engine(
        "lamport", 3, arrivals=TraceArrivals({2: [0.0], 0: [6.0], 1: [12.0]})
    )
    engine.sim.run()
    assert [n for _, n in engine.safety.grant_log] == [2, 0, 1]


def test_enter_requires_hearing_from_everyone():
    """A node whose queue head is its own request still waits for a
    higher-timestamped message from every peer."""
    engine = started_engine("lamport", 3, hold=1.0)
    nodes = engine.nodes
    engine.drivers[0].issue()
    # before any replies return, the node must not be in the CS
    assert nodes[0].cs_count == 0
    engine.sim.run(until=4.9)
    assert nodes[0].state.value == "requesting"
    engine.sim.run()
    assert nodes[0].state.value != "requesting"


def test_fifo_network_no_fallbacks():
    result = run_scenario(
        Scenario(
            algorithm="lamport",
            n_nodes=8,
            arrivals=PoissonArrivals(rate=1 / 10.0),
            seed=1,
            fifo=True,
            issue_deadline=2_000,
            drain_deadline=8_000,
        )
    )
    assert result.all_completed()


def test_reordering_network_handled_by_fallback():
    """Lamport requires FIFO; the early-release fallback covers
    RELEASE-before-REQUEST only.  This seed completes on a reordering
    network, which shows the fallback at work on one trajectory — not
    that the algorithm is safe without FIFO.  It is not: a REPLY
    overtaking a REQUEST breaches mutual exclusion, and
    tests/test_verify.py replays the schedule."""
    result = run_scenario(
        Scenario(
            algorithm="lamport",
            n_nodes=8,
            arrivals=PoissonArrivals(rate=1 / 6.0),
            seed=3,
            delay_model=UniformDelay(0.5, 12.0),
            issue_deadline=2_000,
            drain_deadline=10_000,
        )
    )
    assert result.all_completed()


def test_single_node():
    result = run_scenario(
        Scenario(algorithm="lamport", n_nodes=1, arrivals=BurstArrivals())
    )
    assert result.completed_count == 1
