"""Ricart–Agrawala mutual exclusion [13].

A requester timestamps its request with a Lamport clock, broadcasts
REQUEST to all N−1 peers and enters on receiving REPLY from everyone.
A peer replies immediately unless it is in the CS or holds an older
(higher-priority) outstanding request, in which case the reply is
deferred until its own release.  Priority is the pair ``(ts, id)``,
smaller first.

Cost: exactly 2(N−1) messages per CS; response 2·Tn at light load;
synchronization delay Tn.  No FIFO requirement.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.mutex.base import Env, Hooks, MutexNode, NodeState
from repro.net.message import Message

__all__ = ["RicartAgrawalaNode", "RaRequest", "RaReply"]


class RaRequest(Message):
    kind = "REQUEST"
    __slots__ = ("ts", "origin")
    ts: int
    origin: int

    def __init__(self, ts: int, origin: int) -> None:
        self.ts = ts
        self.origin = origin


class RaReply(Message):
    kind = "REPLY"
    __slots__ = ("req_ts",)
    req_ts: int

    def __init__(self, req_ts: int) -> None:
        self.req_ts = req_ts


class RicartAgrawalaNode(MutexNode):
    """One node of the Ricart–Agrawala algorithm."""

    algorithm_name = "ricart_agrawala"

    def __init__(
        self, node_id: int, n_nodes: int, env: Env, hooks: Hooks
    ) -> None:
        super().__init__(node_id, n_nodes, env, hooks)
        self.clock = 0
        self.req_ts: Optional[int] = None
        self._awaiting: Set[int] = set()
        self._deferred: Set[int] = set()

    # ------------------------------------------------------------------
    def _do_request(self) -> None:
        self.clock += 1
        self.req_ts = self.clock
        self._awaiting = set(self.peers())
        if not self._awaiting:  # single-node system
            self._grant()
            return
        for j in self.peers():
            self.env.send(self.node_id, j, RaRequest(self.req_ts, self.node_id))

    def _do_release(self) -> None:
        self.req_ts = None
        deferred, self._deferred = self._deferred, set()
        for j in sorted(deferred):
            self.env.send(self.node_id, j, RaReply(0))

    # ------------------------------------------------------------------
    def on_message(self, src: int, message: Message) -> None:
        if isinstance(message, RaRequest):
            self._on_request(src, message)
        elif isinstance(message, RaReply):
            self._on_reply(src)
        else:
            raise TypeError(f"unexpected message {message!r}")

    def _on_request(self, src: int, msg: RaRequest) -> None:
        self.clock = max(self.clock, msg.ts) + 1
        if self._defers(msg):
            self._deferred.add(src)
        else:
            self.env.send(self.node_id, src, RaReply(msg.ts))

    def _defers(self, msg: RaRequest) -> bool:
        """True when our own claim outranks the incoming request."""
        if self.state is NodeState.IN_CS:
            return True
        if self.state is NodeState.REQUESTING and self.req_ts is not None:
            return (self.req_ts, self.node_id) < (msg.ts, msg.origin)
        return False

    def _on_reply(self, src: int) -> None:
        if self.state is not NodeState.REQUESTING:
            return  # late reply after a protocol-level retry; ignore
        self._awaiting.discard(src)
        if not self._awaiting:
            self._grant()
