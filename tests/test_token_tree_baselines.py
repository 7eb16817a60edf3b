"""Tests for the centralized, Raymond, Naimi–Trehel and
Agrawal–El Abbadi baselines."""

import pytest

from repro.baselines.raymond import heap_parents
from repro.workload import (
    BurstArrivals,
    PoissonArrivals,
    Scenario,
    TraceArrivals,
    run_scenario,
)
from tests.conftest import started_engine


def _one_request(algorithm, n, node):
    """``algorithm`` at N=``n`` after ``node``'s one request drains."""
    engine = started_engine(algorithm, n)
    engine.drivers[node].issue()
    engine.sim.run()
    return engine


# ----------------------------------------------------------------------
# centralized
# ----------------------------------------------------------------------
def test_centralized_three_messages_for_clients():
    engine = _one_request("centralized", 5, 3)
    assert engine.network.stats.sent_total == 3  # REQUEST, GRANT, RELEASE


def test_centralized_coordinator_enters_for_free():
    engine = _one_request("centralized", 5, 0)
    assert engine.network.stats.sent_total == 0
    assert engine.nodes[0].cs_count == 1


def test_centralized_queue_is_fifo_by_arrival():
    engine = started_engine(
        "centralized", 4, arrivals=TraceArrivals({2: [0.0], 1: [1.0], 3: [2.0]})
    )
    engine.sim.run()
    assert [n for _, n in engine.safety.grant_log] == [2, 1, 3]


def test_centralized_burst_and_poisson():
    for n in (3, 10):
        r = run_scenario(
            Scenario(algorithm="centralized", n_nodes=n, arrivals=BurstArrivals())
        )
        assert r.completed_count == n
    r = run_scenario(
        Scenario(
            algorithm="centralized",
            n_nodes=6,
            arrivals=PoissonArrivals(1 / 8.0),
            seed=1,
            issue_deadline=2_000,
            drain_deadline=8_000,
        )
    )
    assert r.all_completed()


# ----------------------------------------------------------------------
# Raymond
# ----------------------------------------------------------------------
def test_heap_parents_shape():
    assert heap_parents(7) == [None, 0, 0, 1, 1, 2, 2]


def test_raymond_root_enters_for_free():
    engine = _one_request("raymond", 7, 0)
    assert engine.network.stats.sent_total == 0


def test_raymond_leaf_costs_two_per_edge():
    """Request travels up, token travels down: 2 messages per edge on
    the path (node 5 is two edges from the root in a 7-node heap)."""
    engine = _one_request("raymond", 7, 5)
    assert engine.nodes[5].cs_count == 1
    assert engine.network.stats.by_kind["REQUEST"] == 2
    assert engine.network.stats.by_kind["TOKEN"] == 2


def test_raymond_custom_chain_topology():
    parents = [None, 0, 1, 2]  # a path 0-1-2-3
    result = run_scenario(
        Scenario(
            algorithm="raymond",
            n_nodes=4,
            arrivals=BurstArrivals(),
            seed=0,
            algo_kwargs={"parents": parents},
        )
    )
    assert result.completed_count == 4


def test_raymond_rejects_bad_parent_vector():
    with pytest.raises(ValueError):
        started_engine("raymond", 4, algo_kwargs={"parents": [None, 0]})


def test_raymond_burst_heavy_load_low_nme():
    """The famous structured-algorithm property: ~4 messages per CS at
    heavy load (§1 cites Raymond's 4-message figure)."""
    result = run_scenario(
        Scenario(
            algorithm="raymond",
            n_nodes=15,
            arrivals=BurstArrivals(requests_per_node=3),
            seed=1,
        )
    )
    assert result.completed_count == 45
    assert result.nme <= 5.0


# ----------------------------------------------------------------------
# Naimi–Trehel
# ----------------------------------------------------------------------
def test_naimi_trehel_owner_enters_for_free():
    engine = _one_request("naimi_trehel", 5, 0)
    assert engine.network.stats.sent_total == 0


def test_naimi_trehel_direct_handoff():
    """After path reversal, a second requester reaches the new owner
    directly: REQUEST + TOKEN only."""
    engine = _one_request("naimi_trehel", 4, 2)
    sent_before = engine.network.stats.sent_total
    assert sent_before == 2  # REQUEST to 0, TOKEN back
    engine.drivers[1].issue()  # father still 0: forward 0 -> 2
    engine.sim.run()
    # REQUEST 1->0, forwarded 0->2, TOKEN 2->1
    assert engine.network.stats.sent_total == sent_before + 3


def test_naimi_trehel_burst_and_sustained():
    for n in (2, 5, 12):
        r = run_scenario(
            Scenario(
                algorithm="naimi_trehel",
                n_nodes=n,
                arrivals=BurstArrivals(requests_per_node=2),
                seed=n,
            )
        )
        assert r.completed_count == 2 * n
    r = run_scenario(
        Scenario(
            algorithm="naimi_trehel",
            n_nodes=10,
            arrivals=PoissonArrivals(1 / 6.0),
            seed=2,
            issue_deadline=3_000,
            drain_deadline=12_000,
        )
    )
    assert r.all_completed()


def test_naimi_trehel_sublinear_messages():
    result = run_scenario(
        Scenario(
            algorithm="naimi_trehel",
            n_nodes=32,
            arrivals=BurstArrivals(requests_per_node=2),
            seed=3,
        )
    )
    assert result.nme < 8  # O(log N) average; N would be 32


# ----------------------------------------------------------------------
# Agrawal–El Abbadi
# ----------------------------------------------------------------------
def test_aea_burst_various_sizes():
    for n in (3, 7, 15, 20):
        result = run_scenario(
            Scenario(
                algorithm="agrawal_elabbadi",
                n_nodes=n,
                arrivals=BurstArrivals(),
                seed=n,
            )
        )
        assert result.completed_count == n


def test_aea_logarithmic_message_cost():
    result = run_scenario(
        Scenario(
            algorithm="agrawal_elabbadi",
            n_nodes=31,  # complete tree of depth 5
            arrivals=BurstArrivals(requests_per_node=2),
            seed=1,
        )
    )
    # path length 5, 3..5 messages per member
    assert result.nme < 5 * 5 + 1
    assert result.completed_count == 62


def test_tree_quorum_alias():
    result = run_scenario(
        Scenario(algorithm="tree_quorum", n_nodes=7, arrivals=BurstArrivals())
    )
    assert result.completed_count == 7
