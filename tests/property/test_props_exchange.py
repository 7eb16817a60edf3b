"""Property-based tests for the Exchange procedure.

Exchange is, at heart, a state-merge: these properties pin the
CRDT-like behaviour that makes it safe under arbitrary message
reordering (the paper's non-FIFO claim).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exchange import exchange, merge_nonl
from repro.core.state import SystemInfo
from repro.core.tuples import ReqTuple


@st.composite
def system_infos(draw, n=5):
    """A plausible SI: a NONL of distinct tuples, per-row MNLs, a
    done vector below the tuples' timestamps."""
    si = SystemInfo(n)
    nodes = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            max_size=n,
            unique=True,
        )
    )
    si.nonl = [ReqTuple(j, draw(st.integers(2, 4))) for j in nodes]
    for i in range(n):
        si.row_ts[i] = draw(st.integers(0, 6))
        extra = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                max_size=3,
                unique=True,
            )
        )
        si.rows[i].mnl = [
            ReqTuple(j, draw(st.integers(2, 4)))
            for j in extra
            if all(t.node != j for t in si.nonl)
        ]
    for j in range(n):
        si.done[j] = draw(st.integers(0, 1))
    si.prune_done()
    si.prune_ordered_from_rows()
    return si


@settings(max_examples=150, deadline=None)
@given(a=system_infos(), b=system_infos())
def test_exchange_is_idempotent(a, b):
    exchange(a, b, on_inconsistency="count")
    state1 = (list(a.nonl), list(a.done), [list(r.mnl) for r in a.rows])
    exchange(a, b, on_inconsistency="count")
    state2 = (list(a.nonl), list(a.done), [list(r.mnl) for r in a.rows])
    assert state1 == state2


@settings(max_examples=150, deadline=None)
@given(a=system_infos(), b=system_infos())
def test_done_vector_merge_is_pointwise_max(a, b):
    da, db = list(a.done), list(b.done)
    exchange(a, b, on_inconsistency="count")
    assert a.done == [max(x, y) for x, y in zip(da, db)]


@settings(max_examples=150, deadline=None)
@given(a=system_infos(), b=system_infos())
def test_exchange_never_keeps_finished_tuples(a, b):
    exchange(a, b, on_inconsistency="count")
    for t in a.nonl:
        assert t.ts > a.done[t.node]
    for row in a.rows:
        for t in row.mnl:
            assert t.ts > a.done[t.node]
            assert t not in a.nonl  # ordered tuples left the vote


@settings(max_examples=150, deadline=None)
@given(a=system_infos(), b=system_infos())
def test_exchange_preserves_remote_snapshot(a, b):
    before = (
        list(b.nonl),
        list(b.done),
        [list(r.mnl) for r in b.rows],
        list(b.row_ts),
    )
    exchange(a, b, on_inconsistency="count")
    after = (
        list(b.nonl),
        list(b.done),
        [list(r.mnl) for r in b.rows],
        list(b.row_ts),
    )
    assert before == after


# ----------------------------------------------------------------------
# merge_nonl algebra
# ----------------------------------------------------------------------
tuples_lists = st.lists(
    st.integers(min_value=0, max_value=6), unique=True, max_size=6
).map(lambda xs: [ReqTuple(x, 1) for x in xs])


@settings(max_examples=200, deadline=None)
@given(a=tuples_lists, b=tuples_lists)
def test_merge_nonl_is_union(a, b):
    merged = merge_nonl(a, b)
    assert set(merged) == set(a) | set(b)
    assert len(merged) == len(set(merged))  # no duplicates


@settings(max_examples=200, deadline=None)
@given(a=tuples_lists, b=tuples_lists)
def test_merge_nonl_preserves_longer_lists_order(a, b):
    merged = merge_nonl(a, b)
    longer = a if len(a) >= len(b) else b
    positions = {t: i for i, t in enumerate(merged)}
    order = [positions[t] for t in longer]
    assert order == sorted(order)


@settings(max_examples=200, deadline=None)
@given(a=tuples_lists)
def test_merge_nonl_with_prefix_is_identity(a):
    for cut in range(len(a) + 1):
        assert merge_nonl(a, a[:cut]) == a
        assert merge_nonl(a[:cut], a) == a
