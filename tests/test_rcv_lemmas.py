"""Deep verification: the paper's lemmas checked across the whole
replicated state while scenarios run (core/verification.py)."""

import pytest

from repro.core.errors import ProtocolInvariantError
from repro.core.tuples import ReqTuple
from repro.core.verification import (
    LemmaMonitor,
    check_system,
    merge_global_order,
)
from repro.net.delay import UniformDelay
from tests.conftest import started_engine


def T(node, ts=1):
    return ReqTuple(node, ts)


# ----------------------------------------------------------------------
# merge_global_order
# ----------------------------------------------------------------------
def test_merge_consistent_orders():
    merged = merge_global_order([[T(1), T(2)], [T(2), T(3)], []])
    assert merged == [T(1), T(2), T(3)]


def test_merge_detects_conflict():
    assert merge_global_order([[T(1), T(2)], [T(2), T(1)]]) is None


def test_merge_disjoint_lists():
    merged = merge_global_order([[T(1)], [T(2)]])
    assert merged is not None
    assert set(merged) == {T(1), T(2)}


def test_merge_empty():
    assert merge_global_order([]) == []


# ----------------------------------------------------------------------
# check_system
# ----------------------------------------------------------------------
def _world():
    return started_engine("rcv", 4, seed=3)


def test_check_system_passes_on_fresh_world():
    check_system(_world().nodes)


def test_check_system_catches_lemma7_violation():
    nodes = _world().nodes
    nodes[0].si.nonl = [T(1), T(2)]
    nodes[1].si.nonl = [T(2), T(1)]
    with pytest.raises(ProtocolInvariantError, match="Lemma 7"):
        check_system(nodes)


def test_lemma1_violation_unrepresentable():
    """The columnar {node: ts} row storage makes a Lemma 1 violation
    (two tuples of one node in an MNL) structurally unrepresentable:
    both the wholesale setter and the incremental append reject it
    loudly instead of letting ``check_system`` find it later."""
    nodes = _world().nodes
    with pytest.raises(ValueError, match="Lemma 1"):
        nodes[0].si.rows[2].mnl = [T(1, 1), T(1, 3)]
    row = nodes[0].si.own_row(2)
    row.mnl = [T(1, 1)]
    with pytest.raises(ValueError, match="Lemma 1"):
        row.append_unique(T(1, 3))
    check_system(nodes)  # the built system itself stays clean


# ----------------------------------------------------------------------
# LemmaMonitor during live runs
# ----------------------------------------------------------------------
def _run_monitored(n, seed, delay_model=None, period=1.0):
    engine = started_engine("rcv", n, seed=seed, delay_model=delay_model)
    monitor = LemmaMonitor(engine.sim, engine.nodes, period=period)
    monitor.start()
    for driver in engine.drivers:
        driver.issue()
    engine.sim.run()
    return engine, monitor


@pytest.mark.parametrize("seed", range(4))
def test_burst_obeys_lemmas_throughout(seed):
    engine, monitor = _run_monitored(10, seed)
    assert monitor.checks > 10  # actually sampled during activity
    assert all(node.cs_count == 1 for node in engine.nodes)


def test_reordering_network_obeys_lemmas():
    engine, monitor = _run_monitored(
        8, 2, delay_model=UniformDelay(1.0, 9.0), period=0.5
    )
    assert monitor.checks > 5
    assert all(node.cs_count == 1 for node in engine.nodes)


def test_monitor_validates_period():
    engine = _world()
    with pytest.raises(ValueError):
        LemmaMonitor(engine.sim, engine.nodes, period=0.0)


def test_commit_ledger_detects_cross_time_reversal():
    """A reversal that instantaneous pairwise checks would miss: the
    conflicting NONLs are never visible in the same snapshot."""
    engine = _world()
    nodes = engine.nodes
    monitor = LemmaMonitor(engine.sim, nodes, period=1.0)
    nodes[0].si.nonl = [T(1), T(2)]
    monitor.check_now()  # ledger: 1 before 2
    nodes[0].si.nonl = []
    nodes[1].si.nonl = [T(2), T(1)]  # later, the opposite order
    with pytest.raises(ProtocolInvariantError, match="ledger|reversed"):
        monitor.check_now()
