"""Tests for the membership-exclusion extension
(RCVConfig.exclude_nodes) — the vote-recovery half of crash
tolerance (EXPERIMENTS.md F3)."""

import pytest

from repro.core import RCVConfig, RCVNode
from repro.core.messages import RequestMessage
from repro.core.state import SystemInfo
from repro.core.tuples import ReqTuple
from repro.net.faults import FaultPlan
from tests.conftest import make_harness


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


def _world(n, crashed, requesters, seed=0, **cfg_kwargs):
    plan = FaultPlan((("crash", tuple((c, 0.0) for c in crashed)),))
    h = make_harness(seed=seed, outages=plan)
    cfg = RCVConfig(exclude_nodes=frozenset(crashed), **cfg_kwargs)
    h.add_nodes(RCVNode, n, config=cfg)
    h.auto_release_after(10.0)
    for i in requesters:
        h.request(i)
    return h


@pytest.mark.parametrize("seed", range(5))
def test_contended_requests_complete_despite_crash(seed):
    """The F3 split-vote stall, resolved: 5 competitors, 1 crashed
    node, threshold closes over the 9 live rows."""
    h = _world(10, crashed=[9], requesters=range(5), seed=seed)
    h.run(until=10_000)
    assert all(h.nodes[i].cs_count == 1 for i in range(5))
    assert h.safety.entries == 5


def test_multiple_crashed_nodes():
    h = _world(12, crashed=[9, 10, 11], requesters=range(6), seed=2)
    h.run(until=10_000)
    assert all(h.nodes[i].cs_count == 1 for i in range(6))


def test_rms_never_routed_to_excluded_nodes():
    h = make_harness(seed=1)
    cfg = RCVConfig(exclude_nodes=frozenset({7}))
    h.add_nodes(RCVNode, 8, config=cfg)
    h.auto_release_after(10.0)
    sent_to_excluded = []
    h.network.add_tap(
        lambda s, d, m, at: sent_to_excluded.append(m)
        if d == 7 and isinstance(m, RequestMessage)
        else None
    )
    for i in range(4):
        h.request(i)
    h.run()
    assert sent_to_excluded == []
    assert all(h.nodes[i].cs_count == 1 for i in range(4))


def test_excluded_node_cannot_request():
    h = make_harness()
    cfg = RCVConfig(exclude_nodes=frozenset({2}))
    h.add_nodes(RCVNode, 4, config=cfg)
    with pytest.raises(RuntimeError, match="excluded"):
        h.nodes[2].request_cs()


def test_exclusion_with_recovery_composes():
    """Both extensions together (the crash_recovery example setup)."""
    h = _world(
        10, crashed=[9], requesters=range(5), seed=4, rm_timeout=150.0
    )
    h.run(until=10_000)
    assert all(h.nodes[i].cs_count == 1 for i in range(5))


def test_exclusion_is_noop_when_nobody_crashed():
    """Excluding a healthy idle node only shrinks the electorate."""
    h = _world(8, crashed=[], requesters=range(4), seed=3)
    # exclude node 7 without failing it
    h2 = make_harness(seed=3)
    cfg = RCVConfig(exclude_nodes=frozenset({7}))
    h2.add_nodes(RCVNode, 8, config=cfg)
    h2.auto_release_after(10.0)
    for i in range(4):
        h2.request(i)
    h.run()
    h2.run()
    assert all(h2.nodes[i].cs_count == 1 for i in range(4))
