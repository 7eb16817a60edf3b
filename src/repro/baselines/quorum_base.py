"""Generic quorum-based mutual exclusion (Maekawa's protocol [9]).

Each node plays two roles:

* **requester** — sends REQUEST to every member of its quorum and
  enters the CS once all of them have LOCKED for it;
* **arbiter** — grants LOCKED to one request at a time, queueing the
  rest by priority ``(ts, id)``.

Deadlock avoidance uses Maekawa's three auxiliary messages:

* an arbiter that granted a lower-priority request and then receives
  a higher-priority one sends **INQUIRE** to the current grantee;
* a grantee that cannot possibly enter yet (it has seen a **FAILED**)
  answers **RELINQUISH**, returning the arbiter's vote;
* an arbiter receiving a request with lower priority than its current
  grant answers **FAILED**.

Message cost: 3·|Q| per CS uncontended (REQUEST/LOCKED/RELEASE), up
to 5·|Q| under contention.  Synchronization delay 2·Tn (RELEASE must
reach the arbiter before the next LOCKED leaves).

The quorum family is pluggable — Maekawa uses the √N grid (the
construction the paper's §6.2 refers to), Agrawal–El Abbadi the
binary-tree paths — and is validated as a coterie at construction.

Requests are tagged with ``(ts, id, seq)`` so that messages from an
earlier request of the same node (possible under non-FIFO delivery)
are recognized and ignored.  That alone is not enough under non-FIFO
channels: ``repro.verify`` found two reorderings *within* a single
request that break the protocol —

* a FAILED sent while the request was queued can overtake the LOCKED
  the arbiter granted later, making the requester discard a vote the
  arbiter still holds for it (permanent deadlock);
* an INQUIRE can overtake its own LOCKED, making the requester
  relinquish a vote it has not yet seen; when the stale LOCKED
  finally lands the requester counts a vote the arbiter has since
  granted to a competitor (mutual-exclusion breach).

Both are closed by versioning grants: every LOCKED/INQUIRE carries a
per-arbiter ``grant_no``, the requester echoes it in RELINQUISH (and
remembers which grants it already returned, so a late LOCKED for a
relinquished grant is dropped), and an arbiter ignores a RELINQUISH
whose number does not match its current grant.  A FAILED from an
arbiter whose vote the requester currently holds is likewise provably
stale — an arbiter never fails its own grantee — and is ignored.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.mutex.base import Env, Hooks, MutexNode, NodeState
from repro.net.message import Message
from repro.quorums.coterie import validate_quorum_system

__all__ = ["QuorumMutexNode"]

Priority = Tuple[int, int]  # (lamport ts, node id) — smaller wins


class QmRequest(Message):
    kind = "REQUEST"
    __slots__ = ("ts", "origin", "seq")
    ts: int
    origin: int
    seq: int

    def __init__(self, ts: int, origin: int, seq: int) -> None:
        self.ts = ts
        self.origin = origin
        self.seq = seq


class QmLocked(Message):
    kind = "LOCKED"
    __slots__ = ("seq", "grant_no")
    seq: int
    grant_no: int

    def __init__(self, seq: int, grant_no: int) -> None:
        self.seq = seq
        self.grant_no = grant_no


class QmFailed(Message):
    kind = "FAILED"
    __slots__ = ("seq",)
    seq: int

    def __init__(self, seq: int) -> None:
        self.seq = seq


class QmInquire(Message):
    kind = "INQUIRE"
    __slots__ = ("seq", "grant_no")
    seq: int
    grant_no: int

    def __init__(self, seq: int, grant_no: int) -> None:
        self.seq = seq
        self.grant_no = grant_no


class QmRelinquish(Message):
    kind = "RELINQUISH"
    __slots__ = ("seq", "grant_no")
    seq: int
    grant_no: int

    def __init__(self, seq: int, grant_no: int) -> None:
        self.seq = seq
        self.grant_no = grant_no


class QmRelease(Message):
    kind = "RELEASE"
    __slots__ = ("seq",)
    seq: int

    def __init__(self, seq: int) -> None:
        self.seq = seq


class _Grant:
    """Arbiter-side record of the currently locked request."""

    __slots__ = ("priority", "origin", "seq", "no", "inquired")

    def __init__(
        self, priority: Priority, origin: int, seq: int, no: int
    ) -> None:
        self.priority = priority
        self.origin = origin
        self.seq = seq
        self.no = no
        self.inquired = False


class QuorumMutexNode(MutexNode):
    """Maekawa-style node parameterized by its quorum family."""

    algorithm_name = "quorum"

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        env: Env,
        hooks: Hooks,
        quorums: Sequence[FrozenSet[int]],
        *,
        validate: bool = True,
        require_self: bool = True,
    ) -> None:
        super().__init__(node_id, n_nodes, env, hooks)
        if validate and node_id == 0:
            # One validation per system is enough; node 0 does it.
            # Self-membership (Maekawa's M3) is an optimization, not a
            # correctness requirement: tree quorums (root-to-leaf
            # paths) legitimately omit the requester.
            validate_quorum_system(quorums, n_nodes, require_self=require_self)
        self.quorum: FrozenSet[int] = quorums[node_id]
        self.clock = 0
        # --- requester state ------------------------------------------
        self.seq = 0  # distinguishes this node's successive requests
        self._voted_for_me: Set[int] = set()
        self._saw_failed = False
        #: inquiries held for later: (arbiter id, grant number) pairs
        self._held_inquiries: List[Tuple[int, int]] = []
        #: grants already returned this request: (arbiter, grant_no);
        #: a LOCKED matching an entry here is a stale reordered copy
        self._relinquished: Set[Tuple[int, int]] = set()
        # --- arbiter state --------------------------------------------
        self._lock: Optional[_Grant] = None
        self._grant_no = 0  # versions this arbiter's successive grants
        self._waiting: List[Tuple[Priority, int, int]] = []  # heap
        #: requests already told they are outranked (one FAILED each)
        self._failed_notified: Set[Tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # requester side
    # ------------------------------------------------------------------
    def _do_request(self) -> None:
        self.clock += 1
        self.seq += 1
        self._voted_for_me = set()
        self._saw_failed = False
        self._held_inquiries = []
        self._relinquished = set()
        ts = self.clock
        for member in sorted(self.quorum):
            if member == self.node_id:
                self._arbiter_request(
                    self.node_id, QmRequest(ts, self.node_id, self.seq)
                )
            else:
                self.env.send(
                    self.node_id, member, QmRequest(ts, self.node_id, self.seq)
                )

    def _do_release(self) -> None:
        self._held_inquiries = []
        for member in sorted(self.quorum):
            if member == self.node_id:
                self._arbiter_release(self.node_id, QmRelease(self.seq))
            else:
                self.env.send(self.node_id, member, QmRelease(self.seq))

    def _on_locked(self, src: int, msg: QmLocked) -> None:
        if msg.seq != self.seq or self.state is not NodeState.REQUESTING:
            return  # vote for an already-finished request
        if (src, msg.grant_no) in self._relinquished:
            return  # we already returned this grant (LOCKED overtaken
            # by its own INQUIRE); the arbiter may have re-granted it
        self._voted_for_me.add(src)
        if self._voted_for_me == self.quorum:
            self._saw_failed = False
            self._grant()

    def _on_failed(self, src: int, msg: QmFailed) -> None:
        if msg.seq != self.seq or self.state is not NodeState.REQUESTING:
            return
        if src in self._voted_for_me:
            # An arbiter never fails its current grantee, so this
            # FAILED predates the LOCKED we hold — a reordered
            # leftover from when we sat in the arbiter's queue.
            return
        self._saw_failed = True
        self._answer_held_inquiries()

    def _on_inquire(self, src: int, msg: QmInquire) -> None:
        if msg.seq != self.seq or self.state is not NodeState.REQUESTING:
            return  # stale inquire (we already entered or released)
        if (src, msg.grant_no) in self._relinquished:
            return  # already answered for this grant
        if self._saw_failed:
            self._relinquish_to(src, msg.grant_no)
        else:
            # Outcome unknown: hold the inquiry until a FAILED arrives
            # (then relinquish) or we enter the CS (then the RELEASE
            # settles it).
            self._held_inquiries.append((src, msg.grant_no))

    def _answer_held_inquiries(self) -> None:
        held, self._held_inquiries = self._held_inquiries, []
        for arbiter, grant_no in held:
            self._relinquish_to(arbiter, grant_no)

    def _relinquish_to(self, arbiter: int, grant_no: int) -> None:
        self._voted_for_me.discard(arbiter)
        self._relinquished.add((arbiter, grant_no))
        reply = QmRelinquish(self.seq, grant_no)
        if arbiter == self.node_id:
            self._arbiter_relinquish(self.node_id, reply)
        else:
            self.env.send(self.node_id, arbiter, reply)

    # ------------------------------------------------------------------
    # arbiter side
    # ------------------------------------------------------------------
    def _send_to_requester(self, origin: int, msg: Message) -> None:
        if origin == self.node_id:
            self._dispatch_requester(self.node_id, msg)
        else:
            self.env.send(self.node_id, origin, msg)

    def _arbiter_request(self, src: int, msg: QmRequest) -> None:
        self.clock = max(self.clock, msg.ts) + 1
        prio: Priority = (msg.ts, msg.origin)
        heapq.heappush(self._waiting, (prio, msg.origin, msg.seq))
        self._arbiter_sync()

    def _arbiter_release(self, src: int, msg: QmRelease) -> None:
        if self._lock is None or self._lock.origin != src:
            return  # release raced with a relinquish we already handled
        if self._lock.seq != msg.seq:
            return
        self._lock = None
        self._arbiter_sync()

    def _arbiter_relinquish(self, src: int, msg: QmRelinquish) -> None:
        grant = self._lock
        if grant is None or grant.origin != src or grant.seq != msg.seq:
            return  # stale relinquish
        if grant.no != msg.grant_no:
            return  # answers a grant we already replaced
        # The vote returns; the relinquished request rejoins the queue.
        # It already knows it failed (that is why it relinquished), so
        # mark it notified to avoid a redundant FAILED.
        heapq.heappush(self._waiting, (grant.priority, grant.origin, grant.seq))
        self._failed_notified.add((grant.origin, grant.seq))
        self._lock = None
        self._arbiter_sync()

    def _arbiter_sync(self) -> None:
        """Re-establish the arbiter invariants after any mutation.

        1. If the vote is free, grant it to the best waiting request.
        2. If the best waiting request outranks the current grantee,
           INQUIRE the grantee (once per grant).
        3. Tell every waiting request that is *not* the best pending
           one that it FAILED (once per request).  This is the crux of
           deadlock freedom: queue state changes after arrival, and a
           requester holding an INQUIRE elsewhere relinquishes only
           when it learns it cannot win here.  Notifying only at
           arrival time (a common simplification) leaves a wait cycle:
           grantee G waits on arbiter B, B's vote meanwhile went to a
           better request that arrived after G queued, and G —
           never FAILED — sits on an INQUIRE from arbiter A forever.
        """
        if self._lock is None and self._waiting:
            prio, origin, seq = heapq.heappop(self._waiting)
            self._failed_notified.discard((origin, seq))
            self._grant_no += 1
            self._lock = _Grant(prio, origin, seq, self._grant_no)
            self._send_to_requester(origin, QmLocked(seq, self._grant_no))
        if self._lock is None:
            return
        head = self._waiting[0] if self._waiting else None
        if head is not None and head[0] < self._lock.priority:
            if not self._lock.inquired:
                self._lock.inquired = True
                self._send_to_requester(
                    self._lock.origin,
                    QmInquire(self._lock.seq, self._lock.no),
                )
        for prio, origin, seq in self._waiting:
            is_best_pending = (
                head is not None
                and (prio, origin, seq) == head
                and prio < self._lock.priority
            )
            if is_best_pending:
                continue  # the inquiry above is working on its behalf
            key = (origin, seq)
            if key not in self._failed_notified:
                self._failed_notified.add(key)
                self._send_to_requester(origin, QmFailed(seq))

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def on_message(self, src: int, message: Message) -> None:
        if isinstance(message, QmRequest):
            self._arbiter_request(src, message)
        elif isinstance(message, QmRelease):
            self._arbiter_release(src, message)
        elif isinstance(message, QmRelinquish):
            self._arbiter_relinquish(src, message)
        else:
            self._dispatch_requester(src, message)

    def _dispatch_requester(self, src: int, message: Message) -> None:
        if isinstance(message, QmLocked):
            self._on_locked(src, message)
        elif isinstance(message, QmFailed):
            self._on_failed(src, message)
        elif isinstance(message, QmInquire):
            self._on_inquire(src, message)
        else:
            raise TypeError(f"unexpected message {message!r}")
