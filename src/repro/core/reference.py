"""Brute-force reference semantics for the protocol hot path.

The incremental Exchange (:mod:`repro.core.exchange`), the
copy-on-write snapshot (:meth:`repro.core.state.SystemInfo.snapshot`)
and the cached Order procedure are *optimisations*: they must be
observationally identical to the historical full-snapshot
implementation — clone every row on every snapshot, clone every
fresher remote row on every merge, re-normalize the entire table
after every exchange, rescan every row on every vote tally.

This module preserves that historical implementation verbatim so it
can serve two purposes:

* **executable specification** — the property suite
  (``tests/property/test_props_incremental.py``) drives
  :func:`reference_exchange` and the incremental ``exchange`` over
  identical randomized message sequences and asserts the resulting
  ``SystemInfo`` states are equal field-for-field;
* **performance baseline** — ``benchmarks/bench_protocol.py`` runs
  whole scenarios under :func:`full_snapshot_mode` to measure the
  messages/sec speedup of the incremental path over the historical
  one (``BENCH_protocol.json``).  The helpers here intentionally do
  *not* call the optimised ``SystemInfo`` fast paths (amortised
  prune, delta vote tally, share epochs), so the baseline pays the
  historical costs even inside an optimised tree; its throughput
  tracks the actual pre-overhaul git tree.

Nothing in the production path imports this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List

from repro.core.errors import ProtocolInvariantError
from repro.core.exchange import is_consistent_order, merge_nonl
from repro.core.state import SystemInfo
from repro.sim.streams import NODE_KIND_RCV_FORWARD, node_stream_name

__all__ = [
    "reference_snapshot",
    "reference_exchange",
    "reference_run_order",
    "full_snapshot_mode",
    "si_state",
]


def reference_snapshot(si: SystemInfo) -> SystemInfo:
    """Historical deep-copy snapshot: clone every row, always.

    O(N · |MNL|) per call — the cost the copy-on-write snapshot
    amortises away.
    """
    snap = SystemInfo(si.n)
    snap.nonl = list(si.nonl)
    snap.rows = [row.clone() for row in si.rows]
    snap.row_ts = list(si.row_ts)
    snap.done = list(si.done)
    snap._max_ts = si._max_ts
    return snap


def _ref_merge_done(si: SystemInfo, other_done) -> None:
    """Historical watermark merge: plain pointwise loop."""
    done = si.done
    changed = False
    for j, ts in enumerate(other_done):
        if ts > done[j]:
            done[j] = ts
            changed = True
    if changed:
        si._done_gen += 1


def _ref_own(si: SystemInfo, j: int):
    """Row ``j`` as a mutable object, bypassing the optimised path's
    bookkeeping.  Historically rows were never shared in reference
    mode; with copy-on-write snapshots in the same process a row can
    arrive shared, so it is cloned here (content-identical)."""
    row = si.rows[j]
    if row.shared:
        row = row.clone()
        si.rows[j] = row
    return row


def _ref_invalidate(si: SystemInfo) -> None:
    """Rows were mutated outside the tracked mutators: force the next
    vote tally to rebuild the front histogram from scratch."""
    si._fronts_ok = False


def _ref_prune_done(si: SystemInfo) -> None:
    """Historical unconditional prune: full O(N · |MNL|) scan.

    Mutates rows in place (bypassing the incremental tracking), so it
    invalidates the optimised path's tally state.
    """
    done = si.done
    si.nonl = [t for t in si.nonl if t.ts > done[t.node]]
    for j in range(si.n):
        row = si.rows[j]
        if any(ts <= done[node] for node, ts in row.cols.items()):
            row = _ref_own(si, j)
            row.cols = {
                node: ts
                for node, ts in row.cols.items()
                if ts > done[node]
            }
    si._clean_done_gen = si._done_gen
    _ref_invalidate(si)


def _ref_prune_ordered(si: SystemInfo) -> None:
    """Historical ordered-tuple purge: full O(N · |MNL|) scan."""
    if not si.nonl:
        return
    ordered = set(si.nonl)
    for j in range(si.n):
        row = si.rows[j]
        if any(item in ordered for item in row.cols.items()):
            row = _ref_own(si, j)
            row.cols = {
                node: ts
                for node, ts in row.cols.items()
                if (node, ts) not in ordered
            }
    _ref_invalidate(si)


def _ref_remove_everywhere(si: SystemInfo, t) -> None:
    """Historical removal: try every row, no suspect pre-filtering."""
    for j in range(si.n):
        if si.rows[j].cols.get(t.node) == t.ts:
            row = _ref_own(si, j)
            del row.cols[t.node]
    _ref_invalidate(si)


def reference_exchange(
    si: SystemInfo,
    msg_si: SystemInfo,
    *,
    on_inconsistency: str = "raise",
    stats=None,
) -> None:
    """Historical full-snapshot Exchange: merge then re-normalize all.

    Merge ``msg_si`` into ``si`` in place with unconditional pruning
    and per-row cloning — the executable specification the
    incremental ``exchange`` is verified against.  ``msg_si`` is
    never mutated.  O(N · |MNL|) per call.

    Only safe on SIs whose rows are unshared (reference mode never
    shares rows); it bypasses the copy-on-write bookkeeping and
    therefore invalidates the share-epoch and vote-delta logs at the
    end.
    """
    # 1. watermarks
    _ref_merge_done(si, msg_si.done)

    # 2. prune outdated state on the local side; view the remote side
    #    through the merged watermark without mutating it.
    _ref_prune_done(si)
    done = si.done
    remote_nonl = [t for t in msg_si.nonl if t.ts > done[t.node]]

    # 3. ordered-list merge (Lemma 6/7)
    if not is_consistent_order(si.nonl, remote_nonl):
        if on_inconsistency == "raise":
            raise ProtocolInvariantError(
                f"NONLs disagree on order: local={si.nonl} "
                f"remote={remote_nonl}"
            )
        if stats is not None:
            stats.inconsistencies += 1
    si.set_nonl(merge_nonl(si.nonl, remote_nonl))

    # 4. per-row freshness sync — unconditional clone of fresher rows.
    for j in range(si.n):
        if msg_si.row_ts[j] > si.row_ts[j]:
            si.rows[j] = msg_si.rows[j].clone()
            si.row_ts[j] = msg_si.row_ts[j]
            si.note_ts(si.row_ts[j])

    # Re-establish pruning invariants over the whole table.
    _ref_prune_done(si)
    _ref_prune_ordered(si)

    # Rows were replaced/mutated outside own_row(): invalidate the
    # copy-on-write share-epoch so a later snapshot re-marks all,
    # and the front histogram so the next vote tally rescans.
    si._need_share = None
    si._fronts_ok = False


def reference_run_order(
    si: SystemInfo,
    home_tup,
    *,
    rule: str = "strict",
    excluded: frozenset = frozenset(),
):
    """Historical Order procedure: sorted ranking, uncached scans.

    Behaviourally identical to :func:`repro.core.order.run_order`
    (which replaces the sort with a single-pass leader test and the
    per-call scans with the live vote histogram); kept verbatim so the
    baseline benchmark pays the historical cost.
    """
    from repro.core.order import OrderOutcome, can_commit

    outcome = OrderOutcome()
    if home_tup is not None and home_tup in si.nonl:
        outcome.be_ordered = True
        _ref_remove_everywhere(si, home_tup)
    else:
        while True:
            votes = {}
            unknown = 0
            for j, row in enumerate(si.rows):
                if j in excluded:
                    continue
                f = row.front()
                if f is not None:
                    votes[f] = votes.get(f, 0) + 1
                else:
                    unknown += 1
            ranked = sorted(
                votes.items(), key=lambda kv: (-kv[1], kv[0].node)
            )
            if not ranked:
                break
            if not can_commit(ranked, si.n, unknown, rule):
                break
            tp1 = ranked[0][0]
            si.nonl_append(tp1)
            _ref_remove_everywhere(si, tp1)
            outcome.newly_ordered.append(tp1)
            if home_tup is not None and tp1 == home_tup:
                outcome.be_ordered = True
                break

    if outcome.be_ordered and home_tup is not None:
        outcome.highest_priority = si.on_top(home_tup)
    return outcome


def si_state(si: SystemInfo) -> tuple:
    """The observable protocol state of an SI, for equality checks."""
    return (
        list(si.nonl),
        list(si.done),
        list(si.row_ts),
        [list(row.mnl) for row in si.rows],
    )


@contextmanager
def full_snapshot_mode():
    """Run the whole stack on the historical full-snapshot path.

    For the duration of the context, patches:

    * ``SystemInfo.snapshot`` → deep-copy :func:`reference_snapshot`;
    * the ``exchange`` / ``run_order`` bindings used by
      :class:`~repro.core.node.RCVNode` → the historical
      implementations above;
    * ``RCVNode._forward_rm`` / ``RCVNode._on_rm`` → historical
      versions (per-hop ``sorted(frozenset)`` forwarding population,
      O(N) ``max_row_ts`` scan per RM).

    Used by ``benchmarks/bench_protocol.py`` to measure the baseline;
    never use it in production code.
    """
    from repro.core import node as node_mod
    from repro.core.messages import RequestMessage

    RCVNode = node_mod.RCVNode

    def _ref_forward_rm(self, home, tup, unvisited, hops):
        rng = self.env.rng(node_stream_name(NODE_KIND_RCV_FORWARD, self.node_id))
        ul = frozenset(unvisited)
        # The historical population shape: sorted sequence rebuilt per
        # hop.  Routed through the configured policy so non-random
        # forwarding variants stay comparable (RandomPolicy draws
        # exactly the historical rng.choice(sorted(ul))).
        dest = self.policy.choose(tuple(sorted(ul)), self.si, rng)
        msg = RequestMessage(
            home, tup, ul - {dest}, self.si.snapshot(), hops=hops
        )
        self.env.send(self.node_id, dest, msg)

    def _ref_on_rm(self, msg):
        self._exchange(msg.si)
        tup = msg.tup
        if self.si.is_done(tup):
            self.counters["stale_rm"] += 1
            self._reprocess_parked()
            return
        row = _ref_own(self.si, self.node_id)
        if tup not in self.si.nonl:
            row.append_unique(tup)
            self.si._fronts_ok = False
        # Historical cost shape: a Python-level scan per RM (the
        # optimised path maintains the maximum in O(1)).
        row_ts = self.si.row_ts
        self.si.row_ts[self.node_id] = (
            max(row_ts[j] for j in range(self.si.n)) + 1
        )
        self.si.note_ts(self.si.row_ts[self.node_id])
        outcome = node_mod.run_order(
            self.si, tup, rule=self.config.rule, excluded=self._excluded
        )
        if outcome.be_ordered:
            self._notify_for(tup)
        else:
            self._continue_roaming(msg)
        self._reprocess_parked()

    patches = [
        (SystemInfo, "snapshot", reference_snapshot),
        (node_mod, "exchange", reference_exchange),
        (node_mod, "run_order", reference_run_order),
        (RCVNode, "_forward_rm", _ref_forward_rm),
        (RCVNode, "_on_rm", _ref_on_rm),
    ]
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
    for obj, name, value in patches:
        setattr(obj, name, value)
    try:
        yield
    finally:
        for obj, name, value in saved:
            setattr(obj, name, value)
