"""Tests for Lamport's timestamp-queue baseline."""

import pytest

from repro.baselines.lamport import LamportNode
from repro.net.channels import FifoChannel
from repro.net.delay import UniformDelay
from repro.workload import BurstArrivals, PoissonArrivals, Scenario, run_scenario
from tests.conftest import make_harness


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
    h = make_harness()
    h.add_nodes(LamportNode, 3)
    h.auto_release_after(10.0)
    # Stagger requests beyond one propagation delay so each later
    # request causally follows the earlier one (Lamport clocks only
    # order causally related events; simultaneous requests tie and
    # break by node id).
    h.nodes[2].request_cs()
    h.sim.schedule(6.0, h.nodes[0].request_cs)
    h.sim.schedule(12.0, h.nodes[1].request_cs)
    h.run()
    assert [n for _, n in h.safety.grant_log] == [2, 0, 1]


def test_enter_requires_hearing_from_everyone():
    """A node whose queue head is its own request still waits for a
    higher-timestamped message from every peer."""
    h = make_harness()
    nodes = h.add_nodes(LamportNode, 3)
    nodes[0].request_cs()
    # before any replies return, the node must not be in the CS
    assert nodes[0].cs_count == 0
    h.run(until=4.9)
    assert nodes[0].state.value == "requesting"
    h.auto_release_after(1.0)
    h.run()
    assert nodes[0].state.value != "requesting"


def test_fifo_network_no_fallbacks():
    result = run_scenario(
        Scenario(
            algorithm="lamport",
            n_nodes=8,
            arrivals=PoissonArrivals(rate=1 / 10.0),
            seed=1,
            channel=FifoChannel(),
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
