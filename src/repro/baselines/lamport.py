"""Lamport's timestamp-queue mutual exclusion [7].

Every node keeps a replicated priority queue of requests ordered by
``(ts, id)``.  A requester broadcasts REQUEST, peers acknowledge with
REPLY, and the requester enters once (a) its request heads its local
queue and (b) it has heard a message with a larger timestamp from
every peer.  RELEASE is broadcast on exit.  Cost: 3(N−1) messages.

**Requires FIFO channels**, as Lamport's proof does.  The one
reordering handled here is RELEASE-before-REQUEST: a RELEASE for a
request not yet seen is remembered and cancels the REQUEST on arrival
(``fifo_fallbacks`` counts how often; never under FIFO or the paper's
constant delay).  That fallback does not make the algorithm correct
on a reordering network: a REPLY that overtakes the REQUEST sent
before it lets the receiver enter on a queue that lacks the sender's
older request.  ``repro.verify`` finds that mutual-exclusion breach
at N=2 in six steps; docs/verification.md has the schedule.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.mutex.base import Env, Hooks, MutexNode, NodeState
from repro.net.message import Message

__all__ = ["LamportNode"]


class LpRequest(Message):
    kind = "REQUEST"
    __slots__ = ("ts", "origin")

    def __init__(self, ts: int, origin: int) -> None:
        super().__init__()
        self.ts = ts
        self.origin = origin


class LpReply(Message):
    kind = "REPLY"
    __slots__ = ("ts",)

    def __init__(self, ts: int) -> None:
        super().__init__()
        self.ts = ts


class LpRelease(Message):
    kind = "RELEASE"
    __slots__ = ("ts", "origin", "req_ts")

    def __init__(self, ts: int, origin: int, req_ts: int) -> None:
        super().__init__()
        self.ts = ts
        self.origin = origin
        self.req_ts = req_ts


class LamportNode(MutexNode):
    """One node of Lamport's mutual-exclusion algorithm."""

    algorithm_name = "lamport"

    def __init__(
        self, node_id: int, n_nodes: int, env: Env, hooks: Hooks
    ) -> None:
        super().__init__(node_id, n_nodes, env, hooks)
        self.clock = 0
        #: replicated request queue as a heap of (ts, origin)
        self._queue: List[Tuple[int, int]] = []
        self._queued: Set[Tuple[int, int]] = set()
        #: newest timestamp heard from each peer
        self._heard: Dict[int, int] = {j: 0 for j in self.peers()}
        self._my_req: Optional[Tuple[int, int]] = None
        #: releases that arrived before their request (non-FIFO)
        self._early_releases: Set[Tuple[int, int]] = set()
        self.fifo_fallbacks = 0

    # ------------------------------------------------------------------
    def _tick(self, incoming_ts: int = 0) -> int:
        self.clock = max(self.clock, incoming_ts) + 1
        return self.clock

    def _queue_add(self, entry: Tuple[int, int]) -> None:
        if entry in self._early_releases:
            self._early_releases.discard(entry)
            self.fifo_fallbacks += 1
            return
        if entry not in self._queued:
            self._queued.add(entry)
            heapq.heappush(self._queue, entry)

    def _queue_remove(self, entry: Tuple[int, int]) -> None:
        if entry in self._queued:
            self._queued.discard(entry)
            # lazy deletion; purge stale heads below
        else:
            self._early_releases.add(entry)

    def _queue_head(self) -> Optional[Tuple[int, int]]:
        while self._queue and self._queue[0] not in self._queued:
            heapq.heappop(self._queue)
        return self._queue[0] if self._queue else None

    # ------------------------------------------------------------------
    def _do_request(self) -> None:
        ts = self._tick()
        self._my_req = (ts, self.node_id)
        self._queue_add(self._my_req)
        for j in self.peers():
            self.env.send(self.node_id, j, LpRequest(ts, self.node_id))
        self._maybe_enter()

    def _do_release(self) -> None:
        assert self._my_req is not None
        req = self._my_req
        self._my_req = None
        self._queue_remove(req)
        ts = self._tick()
        for j in self.peers():
            self.env.send(self.node_id, j, LpRelease(ts, self.node_id, req[0]))

    # ------------------------------------------------------------------
    def on_message(self, src: int, message: Message) -> None:
        if isinstance(message, LpRequest):
            self._tick(message.ts)
            self._heard[src] = max(self._heard[src], message.ts)
            self._queue_add((message.ts, message.origin))
            self.env.send(self.node_id, src, LpReply(self._tick()))
        elif isinstance(message, LpReply):
            self._tick(message.ts)
            self._heard[src] = max(self._heard[src], message.ts)
        elif isinstance(message, LpRelease):
            self._tick(message.ts)
            self._heard[src] = max(self._heard[src], message.ts)
            self._queue_remove((message.req_ts, message.origin))
        else:
            raise TypeError(f"unexpected message {message!r}")
        self._maybe_enter()

    def _maybe_enter(self) -> None:
        if self.state is not NodeState.REQUESTING or self._my_req is None:
            return
        if self._queue_head() != self._my_req:
            return
        ts = self._my_req[0]
        if all(heard > ts for heard in self._heard.values()):
            self._grant()
