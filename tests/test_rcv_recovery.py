"""Tests for the RM-regeneration recovery extension (RCVConfig.rm_timeout).

This is the fault-tolerance machinery the paper defers (§3): a home
whose request is still pending after a timeout relaunches its RM with
the same tuple.  It converts the F3 black-hole failure (a crashed node
swallows the one roaming RM) into a bounded delay, while staying a
no-op on healthy networks.
"""

import pytest

from repro.core import RCVConfig
from repro.core.messages import EnterMessage, InformMessage, RequestMessage
from repro.mutex.base import NodeState
from repro.workload import BurstArrivals, PoissonArrivals, Scenario, run_scenario
from tests.conftest import started_engine

#: node 9 down from the start: it swallows every RM that enters it
NODE_9_DOWN = (("crash", ((9, 0.0),)),)


def _node_0_requests(seed):
    """RCV at N=10 with node 9 down and ``rm_timeout=100``; node 0
    requests at t=0."""
    config = RCVConfig(rm_timeout=100.0)
    engine = started_engine(
        "rcv", 10, seed=seed, faults=NODE_9_DOWN, algo_kwargs={"config": config}
    )
    engine.drivers[0].issue()
    return engine


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
        engine = _node_0_requests(seed)
        engine.sim.run(until=5_000)
        assert engine.nodes[0].cs_count == 1, f"seed {seed} did not recover"
        assert engine.safety.entries == engine.safety.exits


def test_relaunch_counter_reflects_retries():
    # Force at least one relaunch: crash a node certain to be hit by
    # picking a seed that dies without recovery (seed 1 per the
    # resilience test diagnostics).
    engine = _node_0_requests(1)
    engine.sim.run(until=5_000)
    assert engine.nodes[0].cs_count == 1
    total_relaunches = sum(n.counters["rm_relaunched"] for n in engine.nodes)
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
    engine = started_engine(
        "rcv", 4, algo_kwargs={"config": RCVConfig(rm_timeout=500.0)}
    )
    engine.drivers[0].issue()
    engine.sim.run()
    node = engine.nodes[0]
    assert node.cs_count == 1
    assert node.state is NodeState.IDLE
    assert node.counters["rm_relaunched"] == 0
    # No stray timer left: the sim drained completely, and the
    # cancelled timer's slot (t=500) never advanced the clock.
    assert node._recovery_timer is None
    assert engine.sim.pending == 0
    assert engine.sim.now < 500.0


#: the message kinds of one request's life, by their paper names
KINDS = {"RM": RequestMessage, "IM": InformMessage, "EM": EnterMessage}

#: (N, seed, kind, k) whose run sends fewer than k messages of that
#: kind, so there is nothing to lose: a two-node burst sends no IM,
#: and the N=10 seed-0 burst sends eight.
NO_KTH_MESSAGE = frozenset(
    [(2, seed, "IM", k) for seed in (0, 1) for k in (1, 2)]
    + [(10, 0, "IM", 9)]
)


@pytest.mark.parametrize(
    "n, seed, kind, k",
    [
        (n, seed, kind, k)
        for n in (2, 3, 10, 30)
        for seed in (0, 1)
        for kind in KINDS
        for k in sorted({1, 2, n // 2, n - 1})
    ],
)
def test_one_lost_message_is_recovered(n, seed, kind, k):
    """One lost message, and the timer that exists to recover it: a
    one-request-per-node RCV burst with ``rm_timeout=400`` loses its
    k-th ``kind`` message (counted over all nodes, relaunches
    included), and every request still completes.

    The two-node case that once stranded: node 0's first RM is lost,
    node 1's RM orders both requests at node 0 with node 0 first, and
    nobody is left to send node 0 its EM.  The timer relaunches the
    RM whether or not the home sees its tuple ordered.  The cases in
    :data:`NO_KTH_MESSAGE` have nothing to lose, and must not.
    """
    engine = started_engine(
        "rcv",
        n,
        seed=seed,
        arrivals=BurstArrivals(1),
        drain_deadline=20_000,
        algo_kwargs={"config": RCVConfig(rm_timeout=400.0)},
    )
    send = engine.env.send
    sent = []
    dropped = []

    def drop_kth(src, dst, message):
        if isinstance(message, KINDS[kind]):
            sent.append(message)
            if len(sent) == k:
                dropped.append(message)
                engine.network.stats.sent_total += 1  # it left the node
                return
        send(src, dst, message)

    engine.env.send = drop_kth
    result = engine.run(require_completion=False)
    assert bool(dropped) is ((n, seed, kind, k) not in NO_KTH_MESSAGE)
    assert result.completed_count == result.issued_count


@pytest.mark.parametrize("seed", [4, 6, 7])
def test_a_rejoiner_relaunches_an_ordered_request(seed):
    """The rejoin rule is the timer's rule: a node that recovers still
    REQUESTING relaunches its RM, ordered or not.  In these three
    bare cells (N=3, the last node down from t=20 to t=200) node 2's
    tuple is already in its own NONL when it crashes, and the EM or IM
    it waits for is lost in the outage; a rejoin that relaunched only
    unordered requests left two of the three requests stranded."""
    from repro.engine.engine import run_scenario as run_engine_scenario

    scenario = Scenario(
        algorithm="rcv",
        n_nodes=3,
        arrivals=BurstArrivals(),
        seed=seed,
        faults=(("crash", ((2, 20.0),)), ("recover", ((2, 200.0),))),
    )
    result = run_engine_scenario(scenario, require_completion=False)
    assert result.extra["rejoins"] == 1
    assert result.completed_count == result.issued_count == 3


# ----------------------------------------------------------------------
# composition with the fault fabric (PR-7) and the reliable channel:
# rm_timeout is the protocol-level recovery knob, retx the transport-
# level one — they must compose, and each must stay cache-distinct
# ----------------------------------------------------------------------
def test_rm_timeout_composes_with_fault_specs():
    """Protocol-level RM regeneration under a lossy fabric: the timer
    fires, every request completes whichever of its RMs, IMs or EMs
    were lost, safety holds, and the run is deterministic."""
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
    assert result.all_completed()
    again = run_engine_scenario(scenario, require_completion=False)
    assert result_to_dict(result) == result_to_dict(again)


def test_retx_under_rm_timeout_preempts_the_timer():
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


def test_a_run_that_can_never_complete_ends_as_stalled():
    """Node 9 is crashed and never excluded, so a vote is lost for
    good, and the timer would relaunch forever in a burst cell, which
    has no drain deadline: it once ran ten million events (minutes)
    and raised EventBudgetExceeded.  The engine ends it as stalled —
    requests waiting, none in the CS, nothing issued, granted or
    released for a stretch — with a result that says so."""
    import time

    from repro.engine import Engine
    from repro.experiments.parallel import CellSpec
    from repro.workload.runner import IncompleteRunError

    spec = CellSpec(
        "rcv", 10, 1, ("burst", 1), faults=NODE_9_DOWN,
        algo_kwargs={"config": RCVConfig(rm_timeout=150.0)},
    )
    began = time.perf_counter()
    result = run_scenario(spec.build_scenario(), require_completion=False)
    assert time.perf_counter() - began < 1.0
    assert result.completed_count < result.issued_count == 10
    engine = Engine(spec.build_scenario())
    with pytest.raises(IncompleteRunError, match="the run stalled") as raised:
        engine.run()
    assert raised.value.result.horizon == engine.stalled_at == result.horizon
