"""Naimi–Trehel path-reversal token algorithm.

A token algorithm with O(log N) *average* messages per CS: each node
keeps a probable-owner pointer (``father``); a request chases the
pointers to the current tail of a distributed queue, and every node
on the way re-points its ``father`` to the requester (path reversal).
The tail remembers the requester in ``next`` and forwards the token
directly on release — so the grant itself is always a single hop.

Included in the extended comparison set: like RCV it is unstructured
(no maintained topology) and sub-linear in messages, making it the
strongest modern comparator for Figure 6-style message counts.
"""

from __future__ import annotations

from typing import Optional

from repro.mutex.base import Env, Hooks, MutexNode, NodeState
from repro.net.message import Message

__all__ = ["NaimiTrehelNode"]


class NtRequest(Message):
    kind = "REQUEST"
    __slots__ = ("origin",)
    origin: int

    def __init__(self, origin: int) -> None:
        self.origin = origin


class NtToken(Message):
    kind = "TOKEN"
    __slots__ = ()


class NaimiTrehelNode(MutexNode):
    """One node of the Naimi–Trehel algorithm."""

    algorithm_name = "naimi_trehel"

    def __init__(
        self, node_id: int, n_nodes: int, env: Env, hooks: Hooks
    ) -> None:
        super().__init__(node_id, n_nodes, env, hooks)
        #: probable owner; None means "I am the queue tail/owner"
        self.father: Optional[int] = None if node_id == 0 else 0
        self.next: Optional[int] = None
        self.has_token = node_id == 0

    # ------------------------------------------------------------------
    def _do_request(self) -> None:
        if self.father is None:
            # We are the owner; the token must be local and idle.
            assert self.has_token, "queue tail without token while idle"
            self._grant()
            return
        self.env.send(self.node_id, self.father, NtRequest(self.node_id))
        self.father = None  # we become the new tail

    def _do_release(self) -> None:
        if self.next is not None:
            nxt = self.next
            self.next = None
            self.has_token = False
            self.env.send(self.node_id, nxt, NtToken())

    # ------------------------------------------------------------------
    def on_message(self, src: int, message: Message) -> None:
        if isinstance(message, NtRequest):
            self._on_request(message.origin)
        elif isinstance(message, NtToken):
            self._on_token()
        else:
            raise TypeError(f"unexpected message {message!r}")

    def _on_request(self, origin: int) -> None:
        if self.father is None:
            if self.state in (NodeState.REQUESTING, NodeState.IN_CS):
                # We are the tail and still busy: origin becomes next.
                if self.next is not None:
                    raise RuntimeError(
                        f"node {self.node_id} already has next={self.next}"
                    )
                self.next = origin
            else:
                # Idle owner: hand the token over directly.
                assert self.has_token
                self.has_token = False
                self.env.send(self.node_id, origin, NtToken())
        else:
            # Not the tail: forward along the probable-owner chain.
            self.env.send(self.node_id, self.father, NtRequest(origin))
        self.father = origin  # path reversal

    def _on_token(self) -> None:
        if self.state is not NodeState.REQUESTING:
            raise RuntimeError(
                f"node {self.node_id} received the token unsolicited"
            )
        self.has_token = True
        self._grant()
