"""The Order procedure — Relative Consensus Voting (paper §4.2).

Given a node's SI, repeatedly:

1. tally votes: each nonempty NSIT row votes for the tuple at the
   front of its MNL; rows with empty MNLs are *unknown* votes;
2. rank candidates by ``(votes desc, node id asc)``;
3. commit the leader TP1 to the NONL if its victory can no longer be
   overturned by the unknown votes; remove it from every MNL; repeat.

Commit tests
------------

``paper`` (literal §4.2 line 13, with the line-12 sentinel)::

    S1 - S2 > N - ΣS                                  # strict lead
    or (S1 - S2 == N - ΣS and TP1.id < TP2.id)        # tie by id

where TP2 is the runner-up; when TP1 is the only candidate the paper
sets the sentinel ``S2 = 0, TP2.id = 1``.  Note the sentinel is
exactly the smallest id a *distinct* competitor could have when
TP1 is node 0; we generalize it to ``0 if TP1.id != 0 else 1`` so
the tie-break remains meaningful for every home id (for TP1 = node 0
this reduces to the paper's constant).

``strict`` (default; DESIGN.md §3.3): TP1 must beat every *visible*
competitor even if all unknown votes go to that competitor, and must
also beat a hypothetical *unseen* competitor holding all unknown
votes.  This closes the theoretical gap where a third-ranked or
unseen tuple ties TP1 after the unknowns land.  Ties are broken by
node id exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.state import SystemInfo
from repro.core.tuples import ReqTuple

__all__ = ["OrderOutcome", "run_order", "rank_candidates", "can_commit"]


@dataclass
class OrderOutcome:
    """Result of one Order invocation for a specific home tuple."""

    be_ordered: bool = False
    highest_priority: bool = False
    #: tuples committed to the NONL during this invocation, in order
    newly_ordered: List[ReqTuple] = field(default_factory=list)


def rank_candidates(
    si: SystemInfo, excluded: frozenset = frozenset()
) -> List[Tuple[ReqTuple, int]]:
    """Candidates ranked by (votes desc, node id asc) — the {TPh} seq.

    O(|changed rows| + C log C) for C candidates: the tally is the
    SI's live histogram, reconciled over the rows changed since the
    last tally (see :meth:`~repro.core.state.SystemInfo.tally_votes`).
    Pure: does not mutate ``si``.
    """
    votes = si.tally_votes(excluded)
    return sorted(votes.items(), key=lambda kv: (-kv[1], kv[0].node))


def _unseen_competitor_id(tp1: ReqTuple) -> int:
    """Worst-case id of a competitor we have not seen yet.

    A distinct competitor cannot be another request by ``tp1.node``
    (one outstanding request per node), so the smallest possible id
    is 0 — or 1 when TP1 itself is node 0.  This generalizes the
    paper's line-12 sentinel (``S2.NodeID = 1``).
    """
    return 0 if tp1.node != 0 else 1


def can_commit(
    ranked: List[Tuple[ReqTuple, int]],
    n_nodes: int,
    unknown: int,
    rule: str,
) -> bool:
    """Decide whether the leader of ``ranked`` may be committed.

    ``unknown`` is the number of empty NSIT rows (votes not yet
    known).  ``ranked`` must be non-empty.  O(|ranked|); pure.
    """
    tp1, s1 = ranked[0]
    if rule == "paper":
        if len(ranked) >= 2:
            tp2, s2 = ranked[1]
            sentinel_id = tp2.node
        else:
            s2 = 0
            sentinel_id = _unseen_competitor_id(tp1)
        lead = s1 - s2
        return lead > unknown or (lead == unknown and tp1.node < sentinel_id)

    if rule == "strict":
        # Beat every visible competitor assuming it sweeps the
        # unknown votes.
        for tp, s in ranked[1:]:
            lead = s1 - s
            if lead < unknown:
                return False
            if lead == unknown and not tp1.node < tp.node:
                return False
        # Beat a hypothetical unseen competitor holding all unknowns.
        if s1 < unknown:
            return False
        if s1 == unknown and not tp1.node < _unseen_competitor_id(tp1):
            return False
        return True

    raise ValueError(f"unknown RCV rule {rule!r}")


def _committable_leader(
    votes, n_nodes: int, unknown: int, rule: str
) -> Optional[ReqTuple]:
    """Sort-free equivalent of ``rank_candidates`` + ``can_commit``.

    Returns the leader tuple iff it may be committed, else None.
    Both commit tests depend only on the leader, the runner-up and
    per-competitor comparisons — all order-independent — so a single
    O(C) pass over the tally replaces the O(C log C) ranking on the
    Order hot path.  ``rank_candidates``/``can_commit`` remain the
    readable specification (and the property suite pins the two
    paths to each other).
    """
    # One pass: leader and runner-up under (votes desc, node asc).
    # For ``strict`` the runner-up suffices: a competitor beaten by
    # TP2 is beaten a fortiori — if its lead over TP1 could block the
    # commit, TP2's (weakly larger, id-tie-preferred) lead already
    # does, so the per-competitor conjunction collapses to the TP2
    # test plus the unseen-competitor test.
    tp1 = None
    s1 = -1
    tp2 = None
    s2 = -1
    for tp, s in votes.items():
        if s > s1 or (s == s1 and tp[0] < tp1[0]):
            tp1, s1, tp2, s2 = tp, s, tp1, s1
        elif s > s2 or (s == s2 and tp[0] < tp2[0]):
            tp2, s2 = tp, s

    if rule == "paper":
        if tp2 is not None:
            sentinel_id = tp2.node
            lead = s1 - s2
        else:
            sentinel_id = _unseen_competitor_id(tp1)
            lead = s1
        ok = lead > unknown or (lead == unknown and tp1.node < sentinel_id)
        return tp1 if ok else None

    if rule == "strict":
        if tp2 is not None:
            lead = s1 - s2
            if lead < unknown:
                return None
            if lead == unknown and not tp1.node < tp2.node:
                return None
        if s1 < unknown:
            return None
        if s1 == unknown and not tp1.node < _unseen_competitor_id(tp1):
            return None
        return tp1

    raise ValueError(f"unknown RCV rule {rule!r}")


def run_order(
    si: SystemInfo,
    home_tup: Optional[ReqTuple],
    *,
    rule: str = "strict",
    excluded: frozenset = frozenset(),
) -> OrderOutcome:
    """Execute the Order procedure on ``si`` for ``home_tup``.

    ``home_tup`` is the request tuple of the RM being processed (or
    None when re-evaluating parked state with no specific home).
    ``excluded`` is the agreed crashed-membership set (DESIGN.md
    exclusion extension): those rows neither vote nor count as
    unknown.  Mutates ``si`` — committed tuples move from the MNLs to
    the NONL (through the tracked mutators, so the touched rows'
    votes are re-tallied and shared rows are copy-on-write-faulted).
    O(N) per committed tuple; O(|changed rows|) when nothing commits
    and nothing is excluded.
    """
    outcome = OrderOutcome()

    # Paper lines 3–7: already ordered while processing another RM.
    if home_tup is not None and home_tup in si.nonl:
        outcome.be_ordered = True
        si.remove_everywhere(home_tup)
    else:
        while True:
            if excluded:
                votes, unknown = si._vote_scan(excluded)
            else:
                # The live histogram, read in place: it is consumed
                # before the commit below moves it, so no frozen copy
                # is needed.
                si._sync_fronts()
                votes = si._votes
                unknown = si._empty
            if not votes:
                break
            tp1 = _committable_leader(votes, si.n, unknown, rule)
            if tp1 is None:
                break
            si.nonl_append(tp1)
            si.remove_everywhere(tp1)
            outcome.newly_ordered.append(tp1)
            if home_tup is not None and tp1 == home_tup:
                outcome.be_ordered = True
                break  # paper line 17: Continue = false once home commits

    if outcome.be_ordered and home_tup is not None:
        outcome.highest_priority = si.on_top(home_tup)
    return outcome
