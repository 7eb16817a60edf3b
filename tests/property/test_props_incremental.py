"""Property tests: incremental protocol path ≡ brute-force reference.

The dirty-row/copy-on-write Exchange (:mod:`repro.core.exchange`),
the cached Order procedure (:mod:`repro.core.order`) and the
amortised pruning in :mod:`repro.core.state` must be observationally
identical to the historical full-clone implementation preserved in
:mod:`repro.core.reference`.  These properties drive both
implementations through identical randomized message sequences and
assert the resulting ``SystemInfo`` states are equal field for field
after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exchange import exchange
from repro.core.order import run_order
from repro.core.reference import (
    reference_exchange,
    reference_run_order,
    reference_snapshot,
    si_state,
)
from repro.core.state import SystemInfo
from repro.core.tuples import ReqTuple

N = 5


@st.composite
def message_si(draw):
    """A plausible *message snapshot*: normalized, Lemma-1-clean.

    Protocol snapshots always satisfy the pruning invariants (no
    outdated tuple anywhere, no own-NONL tuple in any MNL) — the
    incremental exchange's provably-clean shortcuts rely on them, so
    the generator enforces them the same way a sender does: by
    normalizing.
    """
    si = SystemInfo(N)
    nodes = draw(
        st.lists(
            st.integers(min_value=0, max_value=N - 1),
            max_size=N,
            unique=True,
        )
    )
    si.nonl = [ReqTuple(j, draw(st.integers(2, 5))) for j in nodes]
    for i in range(N):
        si.row_ts[i] = draw(st.integers(0, 8))
        members = draw(
            st.lists(
                st.integers(min_value=0, max_value=N - 1),
                max_size=3,
                unique=True,
            )
        )
        si.rows[i].mnl = [
            ReqTuple(j, draw(st.integers(2, 5))) for j in members
        ]
    for j in range(N):
        si.done[j] = draw(st.integers(0, 2))
    si.note_ts(max(si.row_ts))
    si.force_normalize()
    return si


def brute_force_tally(si):
    votes = {}
    for row in si.rows:
        f = row.front()
        if f is not None:
            votes[f] = votes.get(f, 0) + 1
    return votes


@st.composite
def op_sequences(draw):
    """A random protocol-shaped op sequence."""
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["exchange", "order", "done"]))
        if kind == "exchange":
            ops.append(("exchange", draw(message_si())))
        elif kind == "order":
            home = draw(
                st.one_of(
                    st.none(),
                    st.tuples(
                        st.integers(0, N - 1), st.integers(2, 5)
                    ).map(lambda p: ReqTuple(*p)),
                )
            )
            ops.append(("order", home))
        else:
            ops.append(
                (
                    "done",
                    ReqTuple(
                        draw(st.integers(0, N - 1)),
                        draw(st.integers(1, 5)),
                    ),
                )
            )
    return ops


@settings(max_examples=200, deadline=None)
@given(ops=op_sequences())
def test_incremental_exchange_equals_reference(ops):
    """Same op sequence, two implementations, identical states."""
    fast = SystemInfo(N)
    ref = SystemInfo(N)
    for kind, arg in ops:
        if kind == "exchange":
            exchange(fast, arg, on_inconsistency="count")
            reference_exchange(ref, arg, on_inconsistency="count")
        elif kind == "order":
            run_order(fast, arg, rule="strict")
            reference_run_order(ref, arg, rule="strict")
        else:
            fast.mark_done(arg)
            fast.prune_done()
            fast.prune_ordered_from_rows()
            ref.mark_done(arg)
            ref.force_normalize()
        assert si_state(fast) == si_state(ref), (kind, arg)
        # The live vote histogram must agree with a fresh scan.
        assert fast.tally_votes() == brute_force_tally(fast)
        assert ref.tally_votes() == brute_force_tally(ref)


@settings(max_examples=100, deadline=None)
@given(msg=message_si(), ops=op_sequences())
def test_cow_snapshot_is_frozen(msg, ops):
    """A copy-on-write snapshot's content never changes, no matter
    how the live SI is mutated afterwards — exactly the historical
    deep-copy guarantee."""
    si = SystemInfo(N)
    exchange(si, msg, on_inconsistency="count")
    snap = si.snapshot()
    frozen = si_state(snap)
    deep = si_state(reference_snapshot(si))
    assert frozen == deep
    for kind, arg in ops:
        if kind == "exchange":
            exchange(si, arg, on_inconsistency="count")
        elif kind == "order":
            run_order(si, arg, rule="strict")
        else:
            si.mark_done(arg)
            si.prune_done()
            si.prune_ordered_from_rows()
        assert si_state(snap) == frozen


@settings(max_examples=100, deadline=None)
@given(msg=message_si())
def test_adopted_rows_shared_until_mutated(msg):
    """Adoption installs remote rows by reference; the message
    snapshot itself is never mutated by the exchange."""
    before = si_state(msg)
    si = SystemInfo(N)
    exchange(si, msg, on_inconsistency="count")
    assert si_state(msg) == before
    # Mutating the receiver afterwards must not leak into the message.
    si.own_row(0).mnl = [ReqTuple(0, 99)]
    for t in list(si.nonl):
        si.remove_everywhere(t)
    assert si_state(msg) == before


@st.composite
def prune_sequences(draw):
    """Exchanges and watermark marks with no prune in between,
    interleaved with checked prunes; ends with a checked prune."""
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["exchange", "done", "done", "prune"]))
        if kind == "exchange":
            ops.append(("exchange", draw(message_si())))
        elif kind == "done":
            node = draw(st.integers(0, N - 1))
            ops.append(("done", ReqTuple(node, draw(st.integers(1, 5)))))
        else:
            ops.append(("prune", None))
    ops.append(("prune", None))
    return ops


@settings(max_examples=200, deadline=None)
@given(ops=prune_sequences())
def test_tracked_prune_equals_a_full_prune(ops):
    """prune_done reads only the rows holding a node whose watermark
    advanced; it must leave the SI exactly as a forced full scan
    leaves a snapshot-built twin."""
    si = SystemInfo(N)
    for kind, arg in ops:
        if kind == "exchange":
            exchange(si, arg, on_inconsistency="count")
        elif kind == "done":
            si.mark_done(arg)
        else:
            twin = si.snapshot()
            twin.prune_done(force=True)
            si.prune_done()
            assert si_state(si) == si_state(twin)
