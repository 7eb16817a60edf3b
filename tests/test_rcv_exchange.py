"""Tests for the Exchange procedure (§4.3)."""

import pytest

from repro.core.errors import ProtocolInvariantError
from repro.core.exchange import (
    ExchangeStats,
    exchange,
    is_consistent_order,
    merge_nonl,
)
from repro.core.state import SystemInfo
from repro.core.tuples import ReqTuple


def T(node, ts=1):
    return ReqTuple(node, ts)


# ----------------------------------------------------------------------
# order-consistency predicate (Lemma 7)
# ----------------------------------------------------------------------
def test_consistent_when_one_is_prefix():
    a = [T(1), T(2), T(3)]
    assert is_consistent_order(a, a[:2])
    assert is_consistent_order(a[:1], a)
    assert is_consistent_order(a, [])


def test_consistent_when_disjoint():
    assert is_consistent_order([T(1)], [T(2)])


def test_inconsistent_when_swapped():
    assert not is_consistent_order([T(1), T(2)], [T(2), T(1)])


# ----------------------------------------------------------------------
# merge_nonl
# ----------------------------------------------------------------------
def test_merge_takes_superset():
    longer = [T(1), T(2), T(3)]
    assert merge_nonl([T(1)], longer) == longer
    assert merge_nonl(longer, [T(1)]) == longer
    assert merge_nonl([], longer) == longer
    assert merge_nonl(longer, []) == longer


def test_merge_interleaves_disjoint_suffixes():
    # Common prefix, each side learned a different continuation —
    # possible only transiently; merge keeps both, common order first.
    merged = merge_nonl([T(1), T(2)], [T(1), T(3)])
    assert merged[0] == T(1)
    assert set(merged) == {T(1), T(2), T(3)}


def test_merge_preserves_relative_order_of_common():
    merged = merge_nonl([T(1), T(5), T(2)], [T(5), T(2), T(4)])
    common = [t for t in merged if t in {T(5), T(2)}]
    assert common == [T(5), T(2)]


# ----------------------------------------------------------------------
# exchange
# ----------------------------------------------------------------------
def fresh(n=4):
    return SystemInfo(n)


def test_watermark_merge_and_prune():
    si = fresh()
    si.rows[0].mnl = [T(1, 1), T(2, 1)]
    si.nonl = [T(1, 1)]
    msg = fresh()
    msg.done = [0, 1, 0, 0]  # node 1's request ts=1 finished
    exchange(si, msg)
    assert si.done == [0, 1, 0, 0]
    assert si.nonl == []
    assert si.rows[0].mnl == [T(2, 1)]


def test_longer_nonl_wins_and_rows_are_purged():
    si = fresh()
    si.rows[2].mnl = [T(3, 1), T(2, 1)]
    msg = fresh()
    msg.nonl = [T(3, 1), T(1, 1)]
    exchange(si, msg)
    assert si.nonl == [T(3, 1), T(1, 1)]
    # newly learned ordered tuple no longer competes in any MNL
    assert si.rows[2].mnl == [T(2, 1)]


def test_local_longer_nonl_kept():
    si = fresh()
    si.nonl = [T(3, 1), T(1, 1)]
    msg = fresh()
    msg.nonl = [T(3, 1)]
    exchange(si, msg)
    assert si.nonl == [T(3, 1), T(1, 1)]


def test_fresher_row_replaces_staler():
    si = fresh()
    si.row_ts[1] = 2
    si.rows[1].mnl = [T(0, 1)]
    msg = fresh()
    msg.row_ts[1] = 5
    msg.rows[1].mnl = [T(0, 1), T(3, 2)]
    exchange(si, msg)
    assert si.row_ts[1] == 5
    assert si.rows[1].mnl == [T(0, 1), T(3, 2)]


def test_staler_row_does_not_replace():
    si = fresh()
    si.row_ts[1] = 5
    si.rows[1].mnl = [T(3, 2)]
    msg = fresh()
    msg.row_ts[1] = 2
    msg.rows[1].mnl = [T(0, 1)]
    exchange(si, msg)
    assert si.row_ts[1] == 5
    assert si.rows[1].mnl == [T(3, 2)]


def test_fresher_row_cannot_resurrect_ordered_or_done():
    """A fresher remote row may still carry tuples we already ordered
    or know finished; normalization must strip them (the paper's
    removals don't bump row counters, so this case is real)."""
    si = fresh()
    si.nonl = [T(2, 1)]
    si.done = [0, 3, 0, 0]
    msg = fresh()
    msg.row_ts[3] = 9
    msg.rows[3].mnl = [T(2, 1), T(1, 3), T(0, 1)]
    exchange(si, msg)
    assert si.rows[3].mnl == [T(0, 1)]  # ordered T(2,1) and done T(1,3) gone


def test_message_snapshot_never_mutated():
    si = fresh()
    si.done = [9, 0, 0, 0]
    msg = fresh()
    msg.nonl = [T(0, 1)]  # finished per si's watermark
    msg.row_ts[2] = 4
    msg.rows[2].mnl = [T(0, 1)]
    before_nonl = list(msg.nonl)
    before_mnl = list(msg.rows[2].mnl)
    exchange(si, msg)
    assert msg.nonl == before_nonl
    assert msg.rows[2].mnl == before_mnl
    # and the local copy was cloned, not aliased
    si.rows[2].mnl.append(T(3, 1))
    assert msg.rows[2].mnl == before_mnl


def test_inconsistent_orders_raise_by_default():
    si = fresh()
    si.nonl = [T(1, 1), T(2, 1)]
    msg = fresh()
    msg.nonl = [T(2, 1), T(1, 1)]
    with pytest.raises(ProtocolInvariantError):
        exchange(si, msg)


def test_inconsistent_orders_counted_when_configured():
    si = fresh()
    si.nonl = [T(1, 1), T(2, 1)]
    msg = fresh()
    msg.nonl = [T(2, 1), T(1, 1)]
    stats = ExchangeStats()
    exchange(si, msg, on_inconsistency="count", stats=stats)
    assert stats.inconsistencies == 1
    assert set(si.nonl) == {T(1, 1), T(2, 1)}


def test_exchange_is_idempotent():
    si = fresh()
    msg = fresh()
    msg.nonl = [T(3, 1)]
    msg.row_ts[2] = 4
    msg.rows[2].mnl = [T(1, 2)]
    msg.done = [1, 0, 0, 0]
    exchange(si, msg)
    first = (list(si.nonl), [r.clone().mnl for r in si.rows], list(si.done))
    exchange(si, msg)
    second = (list(si.nonl), [r.clone().mnl for r in si.rows], list(si.done))
    assert first == second


@pytest.mark.parametrize("local_n,remote_n", [(4, 3), (3, 4)])
def test_exchange_refuses_a_snapshot_of_another_size(local_n, remote_n):
    """A peer started with another node count: the merge is refused
    before anything changes (``zip`` used to cut ``done`` short)."""
    si = SystemInfo(local_n)
    si.own_row(0).append_unique(T(0, 1))
    si.row_ts[0] = 1
    remote = SystemInfo(remote_n)
    remote.mark_done(T(0, 1))
    remote.row_ts[:] = [5] * remote_n

    def state():
        return list(si.nonl), list(si.done), list(si.row_ts), si.rows[0].mnl

    before = state()
    match = f"{remote_n}-node system into a {local_n}-node SI"
    with pytest.raises(ProtocolInvariantError, match=match):
        exchange(si, remote.snapshot())
    assert state() == before


# ----------------------------------------------------------------------
# the work counters of whole runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "workload", [("burst", 1), ("poisson", 5.0, 300.0)], ids=["burst", "poisson"]
)
def test_every_exchange_sweeps_every_row_and_the_counters_replay(workload):
    """Each Exchange either merges or skips each of the N rows, and the
    ``exch_*``/``si_*`` counters are simulation outputs: a repeat run
    reproduces every one of them exactly."""
    from repro.experiments.parallel import CellSpec
    from repro.workload import run_scenario

    n = 12
    spec = CellSpec("rcv", n, 0, workload)
    extra = run_scenario(spec.build_scenario()).extra
    assert extra["exchanges"] > 0
    assert (
        extra["exch_rows_merged"] + extra["exch_rows_skipped"]
        == extra["exchanges"] * n
    )
    assert any(key.startswith("si_") for key in extra)
    assert run_scenario(spec.build_scenario()).extra == extra
