"""The Exchange procedure (paper §4.3) — incremental implementation.

Merges an incoming message's snapshot (MONL + MSIT + watermark) into
the receiving node's SI.  Steps, mirroring the paper's lines with the
watermark clarification from DESIGN.md §3.1:

1. merge completion watermarks (pointwise max) — this is the robust
   form of the paper's "outdated tuple" timestamp comparisons (lines
   1–4 and 15–18): a tuple ``<j,t>`` is outdated iff ``t <= done[j]``;
2. prune outdated tuples from both NONLs and all MNLs;
3. merge the ordered lists: after pruning, Lemma 6 guarantees one
   list contains the other with tops aligned, so the longer list wins
   (paper lines 5–12); a disagreement is a Lemma 7 violation and is
   raised or counted per configuration;
4. per-row NSIT sync (lines 13–22): the row with the larger freshness
   counter replaces the staler one, then the pruning invariants are
   re-established (removals of ordered tuples do not bump row
   counters in the paper, so a fresher row may resurrect a tuple the
   local node already ordered — normalization removes it again).

Incremental merge (docs/protocol.md, "Performance model")
---------------------------------------------------------

The result is bit-for-bit identical to the historical full-snapshot
merge (clone every fresher row, re-normalize the whole table), but
the work is proportional to what actually changed:

* step 2's local prune is *skipped* when the watermark merge advanced
  nothing (``SystemInfo.prune_done`` is amortised on the watermark
  generation);
* step 4 adopts a fresher remote row **by reference** (marking it
  shared) instead of cloning it — copy-on-write clones it later iff
  somebody mutates it;
* the same pass over the rows re-normalizes as it goes: an adopted
  row is swept where it may carry outdated or already-ordered tuples,
  and — when the NONL merge learned new ordered tuples — an untouched
  row only if it shares a node with them.  Untouched local rows are
  otherwise provably clean: the SI enters every exchange with both
  pruning invariants holding, so a row that neither changed nor saw
  the NONL/watermark change cannot need pruning.

A brute-force reference implementation of the historical semantics
lives in :mod:`repro.core.reference`; the property suite
(``tests/property/test_props_incremental.py``) drives both against
randomized message sequences and asserts state equality, and
``benchmarks/bench_protocol.py`` measures the speedup.

``exchange`` mutates ``si`` in place; ``msg_si`` is never mutated.
"""

from __future__ import annotations

from typing import List

from repro.core.errors import ProtocolInvariantError
from repro.core.state import SystemInfo
from repro.core.tuples import ReqTuple

__all__ = ["exchange", "merge_nonl", "is_consistent_order", "ExchangeStats"]


def is_consistent_order(a: List[ReqTuple], b: List[ReqTuple]) -> bool:
    """True when the tuples common to ``a`` and ``b`` appear in the
    same relative order — the Lemma 7 property.  O(|a| + |b|).
    Pure: mutates neither list."""
    common = set(a) & set(b)
    fa = [t for t in a if t in common]
    fb = [t for t in b if t in common]
    return fa == fb


def merge_nonl(
    local: List[ReqTuple],
    remote: List[ReqTuple],
) -> List[ReqTuple]:
    """Merge two pruned ordered lists into their union, order kept.

    With Lemma 6 holding, one list is a prefix-extension of the other
    and the merge is simply "take the longer" (paper lines 5–12).  We
    implement the general order-preserving union so that a transient
    divergence repaired under ``on_inconsistency="count"`` still
    yields a usable list: common tuples keep their (identical)
    relative order, and tuples unique to one list are interleaved
    after their latest common predecessor.

    O(|local| + |remote|); pure — returns a new list, mutates neither
    input.
    """
    if not local:
        return list(remote)
    if not remote:
        return list(local)
    seen = set()
    merged: List[ReqTuple] = []
    ia = ib = 0
    set_a, set_b = set(local), set(remote)
    while ia < len(local) or ib < len(remote):
        if ia < len(local) and (local[ia] in seen):
            ia += 1
            continue
        if ib < len(remote) and (remote[ib] in seen):
            ib += 1
            continue
        if ia >= len(local):
            merged.append(remote[ib])
            seen.add(remote[ib])
            ib += 1
        elif ib >= len(remote):
            merged.append(local[ia])
            seen.add(local[ia])
            ia += 1
        elif local[ia] == remote[ib]:
            merged.append(local[ia])
            seen.add(local[ia])
            ia += 1
            ib += 1
        elif local[ia] not in set_b:
            merged.append(local[ia])
            seen.add(local[ia])
            ia += 1
        elif remote[ib] not in set_a:
            merged.append(remote[ib])
            seen.add(remote[ib])
            ib += 1
        else:
            # Both heads are common tuples but disagree — genuine
            # order conflict; prefer the longer list's head.
            source = local if len(local) >= len(remote) else remote
            idx = ia if source is local else ib
            merged.append(source[idx])
            seen.add(source[idx])
            if source is local:
                ia += 1
            else:
                ib += 1
    return merged


class ExchangeStats:
    """Mutable counters a node threads through its exchanges.

    Beyond the Lemma 7 ``inconsistencies`` count, these record how
    much work the incremental merge avoided:

    * ``rows_merged`` / ``rows_skipped`` — NSIT rows adopted from the
      remote snapshot vs. left untouched (remote not fresher);
    * ``clones_avoided`` — adopted rows still shared at the end of
      the exchange (the historical implementation cloned every one);
    * ``prunes_run`` / ``prunes_deferred`` — full watermark-prune
      scans executed vs. skipped because nothing new finished.
    """

    __slots__ = (
        "inconsistencies",
        "exchanges",
        "rows_merged",
        "rows_skipped",
        "clones_avoided",
        "prunes_run",
        "prunes_deferred",
    )

    def __init__(self) -> None:
        self.inconsistencies = 0
        self.exchanges = 0
        self.rows_merged = 0
        self.rows_skipped = 0
        self.clones_avoided = 0
        self.prunes_run = 0
        self.prunes_deferred = 0


def _merge_diverged(
    si: SystemInfo,
    remote_nonl: List[ReqTuple],
    on_inconsistency: str,
    stats: ExchangeStats | None,
) -> set:
    """Slow-path NONL merge for lists that are not prefix-related.

    Runs the full Lemma 7 consistency check and the general
    order-preserving union; returns the set of tuples newly added to
    the local NONL.
    """
    local_nonl = si.nonl
    if not is_consistent_order(local_nonl, remote_nonl):
        if on_inconsistency == "raise":
            raise ProtocolInvariantError(
                f"NONLs disagree on order: local={local_nonl} "
                f"remote={remote_nonl}"
            )
        if stats is not None:
            stats.inconsistencies += 1
    merged = merge_nonl(local_nonl, remote_nonl)
    if merged == local_nonl:
        return set()
    new_tuples = set(merged).difference(local_nonl)
    si.set_nonl(merged)
    return new_tuples


def exchange(
    si: SystemInfo,
    msg_si: SystemInfo,
    *,
    on_inconsistency: str = "raise",
    stats: ExchangeStats | None = None,
) -> None:
    """Merge ``msg_si`` (a message snapshot) into ``si`` in place.

    ``msg_si`` is treated as read-only: messages may be observed by
    taps/tests after delivery, so the snapshot is never mutated (its
    rows may however be *adopted* — shared, copy-on-write — into
    ``si``).  Cost is O(N) plus work proportional to the rows and
    NONL entries that actually changed; see the module docstring.

    Raises :class:`ProtocolInvariantError`, before touching ``si``,
    when ``msg_si`` describes a system of another size (a peer
    started with another node count).
    """
    if msg_si.n != si.n:
        raise ProtocolInvariantError(
            f"cannot merge a snapshot of a {msg_si.n}-node system into "
            f"a {si.n}-node SI"
        )
    # 1.+2. watermarks, then prune the local side.  The merge and the
    # prune are both skipped outright in the common no-change case
    # (equal vectors; watermark clean since the last prune).
    if msg_si.done != si.done:
        si.merge_done(msg_si.done)
    if si._clean_done_gen != si._done_gen:
        pruned = si.prune_done()
    else:
        si.prunes_skipped += 1
        pruned = False

    # View the remote side through the merged watermark without
    # mutating it.  A sender-clean snapshot can only carry outdated
    # tuples where the receiver knows completions the sender did not
    # — impossible when the merged watermark equals the sender's.
    done = si.done
    msg_done = msg_si.done
    covered = msg_done == done
    mnonl = msg_si.nonl
    if not mnonl:
        remote_nonl = ()
    elif covered:
        remote_nonl = mnonl  # read-only below; never aliased into si
    else:
        remote_nonl = [t for t in mnonl if t[1] > done[t[0]]]

    # 3. ordered-list merge (Lemma 6/7).  In normal operation Lemma 6
    #    holds and one pruned list is a prefix of the other, which we
    #    detect with a single slice comparison — consistency is then
    #    implied and the merge is "take the longer".  Only genuinely
    #    diverging lists pay for the general order-preserving union.
    # ``extra`` is the set of ordered tuples the *sender* did not have
    # (post-merge local NONL minus the message's) — the only ordered
    # tuples an adopted row can still carry.  The merge case tells us
    # the answer analytically, so the general ``set(nonl)`` difference
    # (O(|NONL|) hashing per exchange) is only built on the rare
    # diverged path.  ``None`` defers the build to the one case that
    # needs the full local list, and only if the row pass runs.
    # (Both NONLs are pruned against the merged watermark here, so
    # differencing against ``remote_nonl`` equals differencing against
    # the raw message NONL.)
    local_nonl = si.nonl
    new_tuples = ()
    extra = ()
    if not remote_nonl:
        extra = None  # sender ordered nothing we know of: extra = local
    elif remote_nonl == local_nonl:
        pass  # converged — the common steady state; extra = ∅
    elif not local_nonl:
        si.set_nonl(list(remote_nonl))
        new_tuples = set(remote_nonl)
    elif len(remote_nonl) <= len(local_nonl):
        lr = len(remote_nonl)
        if local_nonl[:lr] != remote_nonl:
            new_tuples = _merge_diverged(
                si, remote_nonl, on_inconsistency, stats
            )
            extra = set(si.nonl).difference(remote_nonl)
        else:
            # Local strictly extends the sender's list: the extras
            # are exactly the suffix.
            extra = set(local_nonl[lr:])
    elif remote_nonl[: len(local_nonl)] == local_nonl:
        si.set_nonl(list(remote_nonl))
        new_tuples = set(remote_nonl[len(local_nonl) :])
    else:
        new_tuples = _merge_diverged(si, remote_nonl, on_inconsistency, stats)
        extra = set(si.nonl).difference(remote_nonl)

    # 4. per-row NSIT sync (lines 13–22) and clean-up, in one pass over
    #    the rows.  A fresher remote row is adopted by reference
    #    (copy-on-write).  It was clean against the sender's watermark
    #    and NONL at snapshot time, so one of its tuples can need
    #    pruning only where the receiver knows strictly more: a
    #    completion the sender had not seen (impossible when the merged
    #    watermark equals the sender's — ``covered``) or an ordered
    #    tuple the sender's NONL lacked (``extra``).  An untouched row
    #    was clean on entry and can only have been dirtied by NONL
    #    growth (``new_tuples``): one sharing no node with the new
    #    tuples is skipped with a C-level disjointness test.  MNLs are
    #    short, so a suspect row sweeps its own entries; dirty entries
    #    are keyed by node (Lemma 1), so a row is fixed with one
    #    ``dict.copy`` plus targeted ``del``s.
    rows = si.rows
    mrows = msg_si.rows
    lts = si.row_ts
    mts = msg_si.row_ts
    adopted = adopted_cloned = 0
    if lts != mts or new_tuples:  # equal vectors ⇒ none fresher
        if extra is None:
            extra = set(si.nonl) if si.nonl else ()
        suspect = not covered or extra
        nodes = {t[0] for t in new_tuples}
        stale_add = si._stale.add
        j = -1
        for mt in mts:
            j += 1
            if mt > lts[j]:
                lts[j] = mt
                rows[j] = row = mrows[j]
                row.shared = True
                stale_add(j)
                adopted += 1
                if not suspect:
                    continue
                fresh = True
                dirty = extra
                aged = not covered
            elif not nodes:
                continue
            else:
                row = rows[j]
                if nodes.isdisjoint(row.cols):
                    continue
                fresh = False
                dirty = new_tuples
                aged = False
            cols = row.cols
            bad = None
            for item in cols.items():
                if item in dirty or (aged and item[1] <= done[item[0]]):
                    if bad is None:
                        bad = [item[0]]
                    else:
                        bad.append(item[0])
            if bad:
                new_cols = cols.copy()
                for k in bad:
                    del new_cols[k]
                si._replace_cols(j, new_cols)
                adopted_cloned += fresh
        if adopted:
            si.note_ts(max(lts))

    if stats is not None:
        stats.exchanges += 1
        stats.rows_merged += adopted
        stats.rows_skipped += si.n - adopted
        stats.clones_avoided += adopted - adopted_cloned
        if pruned:
            stats.prunes_run += 1
        else:
            stats.prunes_deferred += 1
