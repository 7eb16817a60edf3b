"""Tests for the SI data structures (NONL/NSIT/MNL + watermark)."""

from repro.core.state import Row, SystemInfo
from repro.core.tuples import ReqTuple


def T(node, ts):
    return ReqTuple(node, ts)


def test_row_front_and_append_unique():
    row = Row()
    assert row.front() is None
    assert row.append_unique(T(1, 1))
    assert not row.append_unique(T(1, 1))  # Lemma 1: no duplicates
    row.append_unique(T(2, 1))
    assert row.front() == T(1, 1)
    row.remove(T(1, 1))
    assert row.front() == T(2, 1)
    row.remove(T(9, 9))  # removing an absent tuple is a no-op


def test_snapshot_is_deep_for_shared_parts():
    si = SystemInfo(3)
    si.rows[0].append_unique(T(0, 1))
    si.nonl.append(T(1, 1))
    si.done[2] = 5
    si.next_node = 2
    snap = si.snapshot()
    # Rows are shared copy-on-write: mutation requires ownership and
    # must not leak into the other side.
    snap.own_row(0).append_unique(T(2, 2))
    snap.nonl.append(T(2, 2))
    snap.done[0] = 99
    assert si.rows[0].mnl == [T(0, 1)]
    assert si.nonl == [T(1, 1)]
    assert si.done[0] == 0
    assert snap.next_node is None  # Next stays local


def test_shared_row_mutation_requires_ownership():
    import pytest

    si = SystemInfo(2)
    si.rows[0].append_unique(T(0, 1))
    snap = si.snapshot()
    # Direct mutation of a shared row is a loud error, not silent
    # snapshot corruption.
    with pytest.raises(RuntimeError):
        si.rows[0].append_unique(T(1, 1))
    with pytest.raises(RuntimeError):
        snap.rows[0].remove(T(0, 1))
    # own_row() faults in a private copy; the snapshot is untouched.
    si.own_row(0).append_unique(T(1, 1))
    assert si.rows[0].mnl == [T(0, 1), T(1, 1)]
    assert snap.rows[0].mnl == [T(0, 1)]
    assert si.cow_clones == 1
    assert si.snapshots_taken == 1


def test_snapshot_shares_rows_until_mutation():
    si = SystemInfo(3)
    si.rows[1].append_unique(T(1, 1))
    snap = si.snapshot()
    # No clones yet: rows are shared by reference.
    assert all(a is b for a, b in zip(si.rows, snap.rows))
    assert all(r.shared for r in si.rows)
    # Mutating one side clones only the touched row.
    si.own_row(1).append_unique(T(2, 1))
    assert si.rows[1] is not snap.rows[1]
    assert si.rows[0] is snap.rows[0]
    assert si.cow_clones == 1


def test_prune_done_is_amortised():
    si = SystemInfo(2)
    si.own_row(0).append_unique(T(1, 2))
    # Watermark untouched since construction: nothing can be
    # outdated, so the prune is skipped outright.
    assert si.prune_done() is False
    si.mark_done(T(1, 1))  # ts=1 < 2: nothing outdated, but dirty
    assert si.prune_done() is True
    assert si.rows[0].mnl == [T(1, 2)]
    assert si.prune_done() is False  # clean again
    si.mark_done(T(1, 2))
    assert si.prune_done() is True
    assert si.rows[0].mnl == []
    assert si.prune_done(force=True) is True  # force defeats the skip
    assert si.prunes_skipped == 2 and si.prunes_run == 3


def test_prune_after_an_advance_outside_the_tracked_mutators_scans_every_row():
    """``reference.py`` advances the watermark and prunes by writing
    ``done``/``_done_gen``/``_clean_done_gen`` itself.  The advance log
    then misses nodes, and the next prune must read every row."""
    from repro.core.reference import _ref_merge_done, _ref_prune_done

    si = SystemInfo(3)
    si.own_row(0).append_unique(T(1, 2))
    si.own_row(1).append_unique(T(2, 2))
    si.mark_done(T(1, 1))  # logged: node 1, nothing outdated yet
    _ref_prune_done(si)  # a clean outside the log
    _ref_merge_done(si, [0, 0, 2])  # node 2 advances, not logged
    assert si.prune_done() is True
    assert si.rows[0].mnl == [T(1, 2)]
    assert si.rows[1].mnl == []


def test_prune_reads_only_rows_holding_an_advanced_node():
    si = SystemInfo(3)
    si.own_row(0).append_unique(T(1, 2))
    si.own_row(1).append_unique(T(2, 2))
    # Written directly, as a test builds an SI: not an advance.
    si.done[2] = 2
    si.mark_done(T(1, 2))
    assert si.prune_done() is True
    assert si.rows[0].mnl == []
    assert si.rows[1].mnl == [T(2, 2)]  # node 2 never advanced
    assert si.prune_done(force=True) is True
    assert si.rows[1].mnl == []


def test_watermark_marks_and_prunes():
    si = SystemInfo(3)
    si.rows[0].append_unique(T(1, 1))
    si.rows[1].append_unique(T(1, 1))
    si.rows[1].append_unique(T(2, 1))
    si.nonl = [T(1, 1), T(2, 1)]
    si.mark_done(T(1, 1))
    assert si.is_done(T(1, 1))
    assert not si.is_done(T(1, 2))  # later request of same node survives
    si.prune_done()
    assert si.nonl == [T(2, 1)]
    assert si.rows[0].mnl == []
    assert si.rows[1].mnl == [T(2, 1)]


def test_mark_done_is_monotone():
    si = SystemInfo(2)
    si.mark_done(T(0, 5))
    si.mark_done(T(0, 3))  # lower timestamp must not regress
    assert si.done[0] == 5


def test_merge_done_pointwise_max():
    si = SystemInfo(3)
    si.done = [1, 5, 0]
    si.merge_done([3, 2, 4])
    assert si.done == [3, 5, 4]


def test_tally_votes_counts_fronts():
    si = SystemInfo(4)
    si.rows[0].mnl = [T(1, 1), T(2, 1)]
    si.rows[1].mnl = [T(1, 1)]
    si.rows[2].mnl = [T(2, 1)]
    # row 3 empty -> unknown vote
    votes = si.tally_votes()
    assert votes == {T(1, 1): 2, T(2, 1): 1}
    assert si.empty_row_count() == 1


def test_remove_everywhere():
    si = SystemInfo(3)
    for r in si.rows:
        r.mnl = [T(1, 1), T(2, 1)]
    si.remove_everywhere(T(1, 1))
    assert all(r.mnl == [T(2, 1)] for r in si.rows)


def test_prune_ordered_from_rows():
    si = SystemInfo(2)
    si.nonl = [T(0, 1)]
    si.rows[0].mnl = [T(0, 1), T(1, 1)]
    si.rows[1].mnl = [T(1, 1)]
    si.prune_ordered_from_rows()
    assert si.rows[0].mnl == [T(1, 1)]
    assert si.rows[1].mnl == [T(1, 1)]


def test_nonl_queries():
    si = SystemInfo(4)
    si.nonl = [T(2, 1), T(0, 1), T(3, 1)]
    assert si.position_in_nonl(T(0, 1)) == 1
    assert si.position_in_nonl(T(9, 9)) is None
    assert si.predecessor_of(T(0, 1)) == T(2, 1)
    assert si.predecessor_of(T(2, 1)) is None  # top has no predecessor
    assert si.predecessor_of(T(9, 9)) is None
    assert si.on_top(T(2, 1))
    assert not si.on_top(T(0, 1))


def test_max_row_ts():
    si = SystemInfo(3)
    si.row_ts[1] = 7
    assert si.max_row_ts() == 7
