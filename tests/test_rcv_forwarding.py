"""Tests for RM forwarding policies (paper future work, DESIGN.md §3.5)."""

import random

import pytest

from repro.core import RCVConfig
from repro.core.forwarding import (
    POLICIES,
    LeastInformedPolicy,
    MostInformedPolicy,
    RandomPolicy,
    SequentialPolicy,
    make_policy,
)
from repro.core.state import SystemInfo
from repro.engine import Engine
from repro.workload import BurstArrivals, PoissonArrivals, Scenario, run_scenario


def si_with_row_ts(ts_by_node):
    si = SystemInfo(len(ts_by_node))
    for i, ts in enumerate(ts_by_node):
        si.row_ts[i] = ts
    return si


def test_registry_contains_all_policies():
    assert set(POLICIES) == {
        "random",
        "sequential",
        "least_informed",
        "most_informed",
    }


def test_make_policy_unknown_name():
    with pytest.raises(ValueError, match="unknown forwarding policy"):
        make_policy("teleport")


def test_sequential_picks_smallest():
    si = si_with_row_ts([0, 0, 0, 0])
    assert SequentialPolicy().choose(frozenset({3, 1, 2}), si, random.Random(0)) == 1


def test_random_draws_only_from_unvisited_and_is_seeded():
    si = si_with_row_ts([0] * 6)
    unvisited = frozenset({1, 3, 5})
    picks = {
        RandomPolicy().choose(unvisited, si, random.Random(s)) for s in range(40)
    }
    assert picks <= unvisited
    assert len(picks) > 1  # actually random
    # deterministic per rng state
    assert RandomPolicy().choose(unvisited, si, random.Random(7)) == RandomPolicy().choose(
        unvisited, si, random.Random(7)
    )


def test_least_informed_prefers_stalest_row():
    si = si_with_row_ts([9, 4, 7, 1])
    assert LeastInformedPolicy().choose(frozenset({1, 2, 3}), si, random.Random(0)) == 3


def test_most_informed_prefers_freshest_row():
    si = si_with_row_ts([9, 4, 7, 1])
    assert MostInformedPolicy().choose(frozenset({1, 2, 3}), si, random.Random(0)) == 2


def test_ties_break_by_node_id():
    si = si_with_row_ts([0, 5, 5, 5])
    assert LeastInformedPolicy().choose(frozenset({3, 2, 1}), si, random.Random(0)) == 1
    assert MostInformedPolicy().choose(frozenset({3, 2, 1}), si, random.Random(0)) == 1


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_every_policy_is_safe_and_live(policy):
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=10,
            arrivals=BurstArrivals(requests_per_node=2),
            seed=3,
            algo_kwargs={"config": RCVConfig(forwarding=policy)},
        )
    )
    assert result.completed_count == 20
    assert result.extra["nonl_inconsistencies"] == 0


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_every_policy_under_poisson(policy):
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=8,
            arrivals=PoissonArrivals(rate=1 / 10.0),
            seed=1,
            issue_deadline=2_000,
            drain_deadline=8_000,
            algo_kwargs={"config": RCVConfig(forwarding=policy)},
        )
    )
    assert result.all_completed()


def test_exchange_on_im_ablation_still_correct():
    for flag in (True, False):
        result = run_scenario(
            Scenario(
                algorithm="rcv",
                n_nodes=10,
                arrivals=BurstArrivals(requests_per_node=2),
                seed=5,
                algo_kwargs={"config": RCVConfig(exchange_on_im=flag)},
            )
        )
        assert result.completed_count == 20


# ----------------------------------------------------------------------
# most_informed under a burst IS sequential (not a bug)
# ----------------------------------------------------------------------
#: every RM send as (home, src, dst), in send order: a burst of one
#: request per node, N=8, seed 0, most_informed
BURST_HOPS_N8 = [
    (0, 0, 1), (1, 1, 0), (2, 2, 0), (3, 3, 0), (4, 4, 0), (5, 5, 0),
    (6, 6, 0), (7, 7, 0), (0, 1, 2), (1, 0, 2), (2, 0, 1), (3, 0, 1),
    (4, 0, 1), (5, 0, 1), (6, 0, 1), (7, 0, 1), (0, 2, 3), (1, 2, 3),
    (2, 1, 3), (3, 1, 2), (4, 1, 2), (5, 1, 2), (6, 1, 2), (7, 1, 2),
    (0, 3, 4), (1, 3, 4), (2, 3, 4), (3, 2, 4), (4, 2, 3), (5, 2, 3),
    (6, 2, 3), (7, 2, 3), (0, 4, 5), (1, 4, 5), (2, 4, 5), (3, 4, 5),
    (4, 3, 5), (5, 3, 4), (6, 3, 4), (0, 5, 6), (1, 5, 6), (2, 5, 6),
    (3, 5, 6), (4, 5, 6), (5, 4, 6), (6, 4, 5), (6, 5, 7),
]  # fmt: skip


def _rm_hops(policy, arrivals, **scenario):
    engine = Engine(
        Scenario(
            algorithm="rcv",
            n_nodes=8,
            arrivals=arrivals,
            seed=0,
            algo_kwargs={"config": RCVConfig(forwarding=policy)},
            **scenario,
        )
    )
    hops = []
    engine.network.add_tap(
        lambda src, dst, m, at: m.kind == "RM" and hops.append((m.home, src, dst))
    )
    engine.run()
    return hops


def test_most_informed_walks_lowest_id_first_under_a_burst():
    """Every RM walks the ids upward, so no unvisited row is ever
    fresher than a lower unvisited one: ``(-row_ts[j], j)`` lands on
    the lowest id (a tie at the first hop, a strictly freshest row
    later), and the hops are ``sequential``'s, one for one."""
    hops = _rm_hops("most_informed", BurstArrivals())
    assert hops == BURST_HOPS_N8
    assert hops == _rm_hops("sequential", BurstArrivals())


def test_most_informed_and_sequential_part_under_poisson():
    poisson = dict(issue_deadline=1_000, drain_deadline=8_000)
    assert _rm_hops(
        "most_informed", PoissonArrivals(rate=1 / 15.0), **poisson
    ) != _rm_hops("sequential", PoissonArrivals(rate=1 / 15.0), **poisson)
