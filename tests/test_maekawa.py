"""Tests for Maekawa's algorithm and the generic quorum protocol."""

import pytest

from repro.baselines.maekawa import build_quorums
from repro.net.delay import ConstantDelay
from repro.quorums.coterie import validate_quorum_system
from repro.workload import BurstArrivals, PoissonArrivals, Scenario, run_scenario
from tests.conftest import started_engine


def test_build_quorums_variants():
    for system in ("grid", "fpp", "majority"):
        qs = build_quorums(13, system)
        validate_quorum_system(qs, 13, require_self=(system != "fpp"))
    with pytest.raises(ValueError):
        build_quorums(10, "bogus")


def test_uncontended_cost_is_three_votes():
    """3 messages per quorum member (minus self): REQUEST/LOCKED/RELEASE."""
    engine = started_engine("maekawa", 9)  # 3x3 grid: quorum size 5
    engine.drivers[4].issue()
    engine.sim.run()
    assert engine.nodes[4].cs_count == 1
    q = len(engine.nodes[4].quorum) - 1  # self votes locally, no messages
    assert engine.network.stats.sent_total == 3 * q


def test_sync_delay_is_two_hops():
    """RELEASE to arbiter + LOCKED to next: 2·Tn (§2 critique of [9])."""
    result = run_scenario(
        Scenario(
            algorithm="maekawa",
            n_nodes=9,
            arrivals=BurstArrivals(),
            seed=0,
            delay_model=ConstantDelay(5.0),
        )
    )
    assert result.sync_delays
    assert min(result.sync_delays) >= 10.0 - 1e-9


def test_contended_burst_is_safe_and_live():
    for n in (4, 9, 16, 25):
        result = run_scenario(
            Scenario(
                algorithm="maekawa", n_nodes=n, arrivals=BurstArrivals(), seed=n
            )
        )
        assert result.completed_count == n


@pytest.mark.parametrize("seed", range(5))
def test_sustained_contention_no_deadlock(seed):
    """The INQUIRE/RELINQUISH/FAILED machinery under heavy conflict —
    the regime where naive quorum locking deadlocks."""
    result = run_scenario(
        Scenario(
            algorithm="maekawa",
            n_nodes=9,
            arrivals=PoissonArrivals(rate=1 / 3.0),
            seed=seed,
            issue_deadline=2_000,
            drain_deadline=12_000,
        )
    )
    assert result.all_completed()
    assert result.completed_count > 40


def test_conflict_messages_appear_under_contention():
    result = run_scenario(
        Scenario(
            algorithm="maekawa",
            n_nodes=16,
            arrivals=BurstArrivals(requests_per_node=2),
            seed=2,
        )
    )
    kinds = result.messages_by_kind
    assert kinds.get("INQUIRE", 0) + kinds.get("FAILED", 0) > 0
    # cost stays within Maekawa's 3..5 per (quorum member - 1) band
    q = len(build_quorums(16, "grid")[0]) - 1
    assert 3 * q - 0.5 <= result.nme <= 5 * q + 0.5


def test_majority_quorums_run():
    result = run_scenario(
        Scenario(
            algorithm="maekawa",
            n_nodes=7,
            arrivals=BurstArrivals(),
            seed=1,
            algo_kwargs={"quorum_system": "majority"},
        )
    )
    assert result.completed_count == 7


def test_fpp_quorums_run_when_order_exists():
    # 7 = 2^2 + 2 + 1: Fano plane, quorum size 3.
    result = run_scenario(
        Scenario(
            algorithm="maekawa",
            n_nodes=7,
            arrivals=BurstArrivals(),
            seed=1,
            algo_kwargs={"quorum_system": "fpp"},
        )
    )
    assert result.completed_count == 7
