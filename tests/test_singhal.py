"""Tests for Singhal's heuristically-aided token algorithm [14]."""

import pytest

from repro.workload import (
    BurstArrivals,
    PoissonArrivals,
    Scenario,
    TraceArrivals,
    run_scenario,
)
from tests.conftest import started_engine


def test_staircase_initialization():
    nodes = started_engine("singhal", 4).nodes
    assert nodes[0].sv == ["H", "N", "N", "N"]
    assert nodes[2].sv == ["R", "R", "N", "N"]
    assert nodes[0].has_token
    assert not nodes[3].has_token


def test_holder_enters_for_free():
    engine = started_engine("singhal", 5)
    engine.drivers[0].issue()
    engine.sim.run()
    assert engine.nodes[0].cs_count == 1
    assert engine.network.stats.sent_total == 0


def test_heuristic_beats_broadcast_at_light_load():
    """The point of [14]: node i only asks the ~i nodes it believes
    are requesting/holding, ~N/2 on average vs Suzuki's N−1."""
    msgs = {}
    for algo in ("singhal", "suzuki_kasami"):
        result = run_scenario(
            Scenario(
                algorithm=algo,
                n_nodes=20,
                arrivals=TraceArrivals({10: [0.0]}),
                seed=0,
                drain_deadline=2_000,
            )
        )
        msgs[algo] = result.messages_total
    assert msgs["singhal"] < msgs["suzuki_kasami"]
    assert msgs["singhal"] <= 20 // 2 + 2


def test_burst_safe_and_live():
    for n in (2, 5, 12, 20):
        result = run_scenario(
            Scenario(
                algorithm="singhal",
                n_nodes=n,
                arrivals=BurstArrivals(requests_per_node=2),
                seed=n,
            )
        )
        assert result.completed_count == 2 * n


@pytest.mark.parametrize("seed", range(4))
def test_sustained_poisson(seed):
    result = run_scenario(
        Scenario(
            algorithm="singhal",
            n_nodes=10,
            arrivals=PoissonArrivals(rate=1 / 8.0),
            seed=seed,
            issue_deadline=3_000,
            drain_deadline=12_000,
        )
    )
    assert result.all_completed()


def test_stale_request_ignored():
    engine = started_engine("singhal", 3, hold=1.0)
    nodes = engine.nodes
    from repro.baselines.singhal import SgRequest

    engine.drivers[1].issue()
    engine.sim.run()
    assert nodes[1].cs_count == 1  # token now at node 1
    before = engine.network.stats.sent_total
    nodes[1].on_message(2, SgRequest(origin=1, seq=1))  # replayed
    assert engine.network.stats.sent_total == before


def test_round_robin_prevents_starvation():
    """All nodes request repeatedly; completions must be balanced."""
    result = run_scenario(
        Scenario(
            algorithm="singhal",
            n_nodes=6,
            arrivals=BurstArrivals(requests_per_node=5),
            seed=1,
        )
    )
    per_node = {}
    for r in result.records:
        per_node[r.node_id] = per_node.get(r.node_id, 0) + int(r.completed)
    assert all(count == 5 for count in per_node.values())


def test_unsolicited_token_raises():
    nodes = started_engine("singhal", 2).nodes
    from repro.baselines.singhal import SgToken

    with pytest.raises(RuntimeError, match="unsolicited"):
        nodes[1].on_message(0, SgToken(["N", "N"], [0, 0]))
