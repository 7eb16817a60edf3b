"""Tests for the RM-regeneration recovery extension (RCVConfig.rm_timeout).

This is the fault-tolerance machinery the paper defers (§3): a home
whose request is still pending after a timeout relaunches its RM with
the same tuple.  It converts the F3 black-hole failure (a crashed node
swallows the one roaming RM) into a bounded delay, while staying a
no-op on healthy networks.
"""

import pytest

from repro.core import RCVConfig, RCVNode
from repro.mutex.base import NodeState
from repro.workload import BurstArrivals, PoissonArrivals, Scenario, run_scenario
from tests.conftest import make_harness


def test_config_validates_timeout():
    with pytest.raises(ValueError):
        RCVConfig(rm_timeout=0.0)
    with pytest.raises(ValueError):
        RCVConfig(rm_timeout=-5.0)
    assert RCVConfig(rm_timeout=100.0).rm_timeout == 100.0


def test_no_relaunch_on_healthy_network():
    """With a generous timeout, recovery must never fire."""
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=12,
            arrivals=BurstArrivals(requests_per_node=2),
            seed=3,
            algo_kwargs={"config": RCVConfig(rm_timeout=2_000.0)},
        )
    )
    assert result.completed_count == 24
    assert result.extra["rm_relaunched"] == 0


def test_relaunch_recovers_swallowed_rm():
    """The F3 scenario, fixed: a crashed idle node eats RMs; every
    seed now completes because the home relaunches."""
    for seed in range(12):
        h = make_harness(seed=seed)
        h.add_nodes(RCVNode, 10, config=RCVConfig(rm_timeout=100.0))
        h.auto_release_after(10.0)
        h.network.fail_node(9)
        h.request(0)
        h.run(until=5_000)
        assert h.nodes[0].cs_count == 1, f"seed {seed} did not recover"
        assert h.safety.entries == h.safety.exits


def test_relaunch_counter_reflects_retries():
    # Force at least one relaunch: crash a node certain to be hit by
    # picking a seed that dies without recovery (seed 1 per the
    # resilience test diagnostics).
    h = make_harness(seed=1)
    h.add_nodes(RCVNode, 10, config=RCVConfig(rm_timeout=100.0))
    h.auto_release_after(10.0)
    h.network.fail_node(9)
    h.request(0)
    h.run(until=5_000)
    assert h.nodes[0].cs_count == 1
    total_relaunches = sum(n.counters["rm_relaunched"] for n in h.nodes)
    assert total_relaunches >= 1


def test_duplicate_rms_are_harmless():
    """An aggressive timeout fires while the original RM is alive and
    well: duplicates must not double-grant or corrupt the order."""
    for seed in range(5):
        result = run_scenario(
            Scenario(
                algorithm="rcv",
                n_nodes=10,
                arrivals=BurstArrivals(),
                seed=seed,
                # shorter than the burst's natural response time
                algo_kwargs={"config": RCVConfig(rm_timeout=20.0)},
            )
        )
        assert result.completed_count == 10
        assert result.extra["nonl_inconsistencies"] == 0
        assert result.extra["rm_relaunched"] >= 1  # it did fire


def test_duplicates_under_sustained_load():
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=8,
            arrivals=PoissonArrivals(rate=1 / 6.0),
            seed=7,
            issue_deadline=2_000,
            drain_deadline=10_000,
            algo_kwargs={"config": RCVConfig(rm_timeout=30.0)},
        )
    )
    assert result.all_completed()
    assert result.extra["nonl_inconsistencies"] == 0


def test_timer_cancelled_on_grant():
    h = make_harness(seed=0)
    h.add_nodes(RCVNode, 4, config=RCVConfig(rm_timeout=500.0))
    h.auto_release_after(10.0)
    h.request(0)
    h.run()
    node = h.nodes[0]
    assert node.cs_count == 1
    assert node.state is NodeState.IDLE
    assert node.counters["rm_relaunched"] == 0
    # No stray timer left: the sim drained completely, and the
    # cancelled timer's slot (t=500) never advanced the clock.
    assert node._recovery_timer is None
    assert h.sim.pending == 0
    assert h.sim.now < 500.0


# ----------------------------------------------------------------------
# composition with the fault fabric (PR-7) and the reliable channel:
# rm_timeout is the protocol-level recovery knob, retx the transport-
# level one — they must compose, and each must stay cache-distinct
# ----------------------------------------------------------------------
def test_rm_timeout_composes_with_fault_specs():
    """Protocol-level RM regeneration under a lossy fabric: RM losses
    are regenerated (the timer fires), safety holds, and the run is
    deterministic — but IM/EM losses stay unrecoverable, so this
    knob alone cannot flatten the completion cliff."""
    from repro.engine.engine import run_scenario as run_engine_scenario
    from repro.metrics.io import result_to_dict

    scenario = Scenario(
        algorithm="rcv",
        n_nodes=10,
        arrivals=BurstArrivals(),
        seed=5,
        faults=(("drop", 0.15),),
        drain_deadline=5_000,
        algo_kwargs={"config": RCVConfig(rm_timeout=50.0)},
    )
    result = run_engine_scenario(scenario, require_completion=False)
    assert result.extra["rm_relaunched"] >= 1
    assert result.extra["net_fault_drops"] >= 1
    assert result.completed_count < result.issued_count
    again = run_engine_scenario(scenario, require_completion=False)
    assert result_to_dict(result) == result_to_dict(again)


def test_retx_under_rm_timeout_completes_where_timer_alone_cannot():
    """The same lossy cell with the reliable channel layered in: every
    request completes, and the RM timer never even fires (transport
    recovery preempts protocol recovery)."""
    from repro.engine.engine import run_scenario as run_engine_scenario

    scenario = Scenario(
        algorithm="rcv",
        n_nodes=10,
        arrivals=BurstArrivals(),
        seed=5,
        faults=(("drop", 0.15),),
        retx=("retx", 5.0, 1.0, 20),
        drain_deadline=5_000,
        algo_kwargs={"config": RCVConfig(rm_timeout=200.0)},
    )
    result = run_engine_scenario(scenario, require_completion=False)
    assert result.all_completed()
    assert result.extra["rm_relaunched"] == 0
    assert result.extra["net_retx_giveups"] == 0


def test_retx_cell_never_aliases_its_no_retx_twin():
    """The cache-key gap this PR closes: a retx cell and its no-retx
    twin differ ONLY in the retx field, so a key that ignored it would
    silently serve wedge-prone results as reliable ones (or vice
    versa) on every backend."""
    from dataclasses import replace as dc_replace

    from repro.experiments.parallel import CellSpec

    base = CellSpec("rcv", 6, 0, ("burst", 1), faults=(("drop", 0.2),))
    retx = dc_replace(base, retx=("retx", 5.0, 1.0, 20))
    assert base.cache_key() != retx.cache_key()
    # the spec-hash canon differs in the retx slot and nothing else
    assert base.normalized().faults == retx.normalized().faults


def test_retx_and_no_retx_cells_stay_distinct_on_every_backend(tmp_path):
    from dataclasses import replace as dc_replace

    from repro.engine.engine import run_scenario as run_engine_scenario
    from repro.experiments.cache import CellCache
    from repro.experiments.parallel import CellSpec
    from repro.metrics.io import result_to_dict
    from tests.test_backends import BACKEND_KINDS, close_backend, make_backend

    base = CellSpec("rcv", 6, 0, ("burst", 1), faults=(("drop", 0.2),))
    retx = dc_replace(base, retx=("retx", 5.0, 1.0, 20))
    result = run_engine_scenario(retx.build_scenario())
    assert result.all_completed()
    for kind in BACKEND_KINDS:
        backend = make_backend(kind, tmp_path / kind)
        try:
            cache = CellCache(backend=backend)
            cache.put(retx, result)
            assert cache.get(base) is None, f"{kind}: retx cell aliased"
            hit = cache.get(retx)
            assert hit is not None
            assert result_to_dict(hit) == result_to_dict(result)
        finally:
            close_backend(backend)
