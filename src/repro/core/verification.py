"""Global-state verification of the paper's lemmas.

The SafetyMonitor checks the *observable* property (no CS overlap);
this module checks the *replicated-state* lemmas it rests on, across
all nodes at once:

* **Lemma 7** — tuples in any two NONLs are ranked in the same order;
* **global commit order** — the union of all NONLs, plus every tuple
  ever committed (tracked via the completion watermarks), forms one
  total order that each node's NONL is a subsequence of;
* **Lemma 1** — no MNL holds two tuples of the same node.

:class:`LemmaMonitor` samples the whole system on a fixed simulated
period; a violation raises :class:`ProtocolInvariantError` at the
exact simulated time it first becomes visible.  Used by the deep
verification tests (``tests/test_rcv_lemmas.py``); cheap enough
(O(nodes · NONL)) to leave on in every CI run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.errors import ProtocolInvariantError
from repro.core.exchange import is_consistent_order
from repro.core.node import RCVNode
from repro.core.tuples import ReqTuple

__all__ = [
    "LemmaMonitor",
    "check_system",
    "extend_before_pairs",
    "merge_global_order",
]


def merge_global_order(
    orders: Sequence[List[ReqTuple]],
) -> Optional[List[ReqTuple]]:
    """Merge per-node NONLs into one total order, or None on conflict.

    Greedy topological merge: repeatedly emit a tuple that is at the
    head of every list containing it.  Succeeds iff the lists are
    pairwise order-consistent (Lemma 7).  O(T²) for T total tuples
    (diagnostic path, not hot); pure — works on copies, never mutates
    the input lists.
    """
    lists = [list(o) for o in orders if o]
    out: List[ReqTuple] = []
    while any(lists):
        emitted = False
        heads = {lst[0] for lst in lists if lst}
        for candidate in heads:
            if all(
                lst[0] == candidate
                for lst in lists
                if candidate in lst
            ):
                out.append(candidate)
                for lst in lists:
                    if lst and lst[0] == candidate:
                        lst.pop(0)
                emitted = True
                break
        if not emitted:
            return None  # circular disagreement
    return out


def check_system(nodes: Sequence[RCVNode]) -> None:
    """One-shot verification of Lemmas 1 and 7 across ``nodes``.

    O(nodes² · NONL + nodes · N · MNL); read-only — inspects every
    node's live SI without mutating it, raising
    :class:`ProtocolInvariantError` on the first violation.
    """
    rcv_nodes = [n for n in nodes if isinstance(n, RCVNode)]
    # Lemma 7: pairwise order consistency.
    for i, a in enumerate(rcv_nodes):
        for b in rcv_nodes[i + 1 :]:
            if not is_consistent_order(a.si.nonl, b.si.nonl):
                raise ProtocolInvariantError(
                    f"Lemma 7 violated: node {a.node_id} NONL "
                    f"{a.si.nonl} vs node {b.node_id} NONL {b.si.nonl}"
                )
    if merge_global_order([n.si.nonl for n in rcv_nodes]) is None:
        raise ProtocolInvariantError(
            "Lemma 7 violated: NONLs admit no common total order"
        )
    # Lemma 1: one tuple per node per MNL.
    for node in rcv_nodes:
        for j, row in enumerate(node.si.rows):
            seen = set()
            for t in row.mnl:
                if t.node in seen:
                    raise ProtocolInvariantError(
                        f"Lemma 1 violated at node {node.node_id}: row "
                        f"{j} holds two tuples of node {t.node}: {row.mnl}"
                    )
                seen.add(t.node)


def extend_before_pairs(before, nonl, *, who: str = "") -> set:
    """Check one NONL against an accumulated before-pair ledger.

    ``before`` holds ordered pairs ``(x, y)`` — *x strictly before y*
    — witnessed in earlier NONL observations; these are the only
    cross-time constraints the protocol asserts (disjoint NONLs impose
    no mutual order).  Returns the pairs ``nonl`` adds, raising
    :class:`ProtocolInvariantError` if it reverses a witnessed pair.
    The caller owns merging the returned pairs into its ledger —
    :class:`LemmaMonitor` updates one set in place across a
    trajectory, while the model checker (``repro.verify``) keeps one
    immutable ledger per exploration path.
    """
    new = set()
    for i, x in enumerate(nonl):
        for y in nonl[i + 1 :]:
            if (y, x) in before:
                raise ProtocolInvariantError(
                    f"commit order reversed across time: "
                    f"{y.describe()} before {x.describe()} was "
                    f"witnessed earlier, but {who or 'a node'} "
                    f"now orders {x.describe()} first"
                )
            if (x, y) not in before:
                new.add((x, y))
    return new


class LemmaMonitor:
    """Periodic whole-system lemma checking during a simulation.

    Also accumulates the *committed order ledger*: once a tuple is
    observed in any NONL, its position relative to previously observed
    tuples is fixed; a later snapshot contradicting the ledger is a
    consistency violation even if the instantaneous NONLs agree
    (catches divergence windows shorter than the sampling period when
    combined with a small ``period``).
    """

    def __init__(
        self,
        sim,
        nodes: Sequence[RCVNode],
        *,
        period: float = 1.0,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.sim = sim
        self.nodes = [n for n in nodes if isinstance(n, RCVNode)]
        self.period = period
        self.checks = 0
        #: ordered pairs (x strictly before y) witnessed inside a
        #: single NONL; the only cross-time constraints the protocol
        #: actually asserts (disjoint NONLs impose no mutual order).
        self._before: set = set()

    def start(self) -> None:
        self.sim.schedule_fast(self.period, self._tick)

    def _tick(self) -> None:
        self.check_now()
        # keep sampling only while protocol activity remains
        if self.sim.pending > 0:
            self.sim.schedule_fast(self.period, self._tick)

    def check_now(self) -> None:
        self.checks += 1
        check_system(self.nodes)
        if merge_global_order([n.si.nonl for n in self.nodes]) is None:
            raise ProtocolInvariantError(  # pragma: no cover - check_system raises first
                "NONLs admit no common total order"
            )
        self._record_and_check_pairs()

    def _record_and_check_pairs(self) -> None:
        """Accumulate before-pairs; a pair seen in both directions —
        even in snapshots taken at different times — is a violation
        that instantaneous pairwise checks cannot see."""
        for node in self.nodes:
            self._before |= extend_before_pairs(
                self._before,
                node.si.nonl,
                who=f"node {node.node_id}",
            )
