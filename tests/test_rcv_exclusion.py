"""Tests for the membership-exclusion extension
(RCVConfig.exclude_nodes) — the vote-recovery half of crash
tolerance (EXPERIMENTS.md F3)."""

import pytest

from repro.core import RCVConfig
from repro.core.messages import RequestMessage
from repro.core.state import SystemInfo
from repro.core.tuples import ReqTuple
from tests.conftest import started_engine


def test_config_normalizes_and_validates():
    cfg = RCVConfig(exclude_nodes={3, 5})
    assert cfg.exclude_nodes == frozenset({3, 5})
    with pytest.raises(ValueError):
        RCVConfig(exclude_nodes={-1})
    with pytest.raises(ValueError):
        RCVConfig(exclude_nodes={"x"})


def test_excluded_rows_neither_vote_nor_count_unknown():
    si = SystemInfo(4)
    si.rows[0].mnl = [ReqTuple(1, 1)]
    si.rows[3].mnl = [ReqTuple(2, 1)]  # excluded node's stale vote
    excluded = frozenset({3})
    assert si.tally_votes(excluded) == {ReqTuple(1, 1): 1}
    # rows 1,2 empty; row 3 excluded -> 2 unknowns, not 3
    assert si.empty_row_count(excluded) == 2
    # without exclusion, all are counted
    assert len(si.tally_votes()) == 2
    assert si.empty_row_count() == 2


def _world(n, crashed, requesters, seed=0, excluded=None, **cfg_kwargs):
    """``crashed`` down from t=0 and, unless ``excluded`` says
    otherwise, excluded; each of ``requesters`` issues at t=0."""
    cfg = RCVConfig(
        exclude_nodes=frozenset(crashed if excluded is None else excluded),
        **cfg_kwargs,
    )
    engine = started_engine(
        "rcv",
        n,
        seed=seed,
        faults=(("crash", tuple((c, 0.0) for c in crashed)),),
        algo_kwargs={"config": cfg},
    )
    for i in requesters:
        engine.drivers[i].issue()
    return engine


@pytest.mark.parametrize("seed", range(5))
def test_contended_requests_complete_despite_crash(seed):
    """The F3 split-vote stall, resolved: 5 competitors, 1 crashed
    node, threshold closes over the 9 live rows."""
    engine = _world(10, crashed=[9], requesters=range(5), seed=seed)
    engine.sim.run(until=10_000)
    assert all(engine.nodes[i].cs_count == 1 for i in range(5))
    assert engine.safety.entries == 5


def test_multiple_crashed_nodes():
    engine = _world(12, crashed=[9, 10, 11], requesters=range(6), seed=2)
    engine.sim.run(until=10_000)
    assert all(engine.nodes[i].cs_count == 1 for i in range(6))


def test_rms_never_routed_to_excluded_nodes():
    engine = started_engine(
        "rcv",
        8,
        seed=1,
        algo_kwargs={"config": RCVConfig(exclude_nodes=frozenset({7}))},
    )
    sent_to_excluded = []
    engine.network.add_tap(
        lambda s, d, m, at: sent_to_excluded.append(m)
        if d == 7 and isinstance(m, RequestMessage)
        else None
    )
    for i in range(4):
        engine.drivers[i].issue()
    engine.sim.run()
    assert sent_to_excluded == []
    assert all(engine.nodes[i].cs_count == 1 for i in range(4))


def test_excluded_node_cannot_request():
    engine = started_engine(
        "rcv", 4, algo_kwargs={"config": RCVConfig(exclude_nodes=frozenset({2}))}
    )
    with pytest.raises(RuntimeError, match="excluded"):
        engine.nodes[2].request_cs()


def test_exclusion_with_recovery_composes():
    """Both extensions together (the crash_recovery example setup)."""
    engine = _world(
        10, crashed=[9], requesters=range(5), seed=4, rm_timeout=150.0
    )
    engine.sim.run(until=10_000)
    assert all(engine.nodes[i].cs_count == 1 for i in range(5))


def test_exclusion_is_noop_when_nobody_crashed():
    """Excluding a healthy idle node only shrinks the electorate: the
    world without exclusion and the one excluding node 7 without
    failing it both complete every request."""
    worlds = [
        _world(8, crashed=[], requesters=range(4), seed=3),
        _world(8, crashed=[], requesters=range(4), seed=3, excluded=[7]),
    ]
    for engine in worlds:
        engine.sim.run()
        assert all(engine.nodes[i].cs_count == 1 for i in range(4))
