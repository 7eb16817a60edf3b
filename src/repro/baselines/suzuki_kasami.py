"""Suzuki–Kasami broadcast token algorithm [17] — the paper's
"Broadcast" comparator.

A single PRIVILEGE token circulates.  A node without the token
broadcasts REQUEST(i, n) where ``n`` is its request sequence number;
the token carries the array ``LN`` of last-served sequence numbers
and a FIFO queue ``Q`` of waiting nodes.  The holder passes the token
on release to the head of ``Q`` after enqueueing every node whose
request is outstanding (``RN[j] == LN[j] + 1``).

Cost: N messages per CS (N−1 requests + 1 token), or 0 when the
requester already holds the token.  Tolerates non-FIFO delivery
(sequence numbers deduplicate stale requests).
"""

from __future__ import annotations

from typing import List, Optional

from repro.mutex.base import Env, Hooks, MutexNode, NodeState
from repro.net.message import Message

__all__ = ["SuzukiKasamiNode"]


class SkRequest(Message):
    kind = "REQUEST"
    __slots__ = ("origin", "seq")
    origin: int
    seq: int

    def __init__(self, origin: int, seq: int) -> None:
        self.origin = origin
        self.seq = seq


class SkToken(Message):
    kind = "TOKEN"
    __slots__ = ("ln", "queue")
    ln: List[int]
    queue: List[int]

    def __init__(self, ln: List[int], queue: List[int]) -> None:
        self.ln = list(ln)
        self.queue = list(queue)

    def size_units(self) -> int:
        return 1 + len(self.ln) + len(self.queue)


class SuzukiKasamiNode(MutexNode):
    """One node of the Suzuki–Kasami broadcast algorithm."""

    algorithm_name = "suzuki_kasami"

    def __init__(
        self, node_id: int, n_nodes: int, env: Env, hooks: Hooks
    ) -> None:
        super().__init__(node_id, n_nodes, env, hooks)
        #: highest request sequence number heard from each node
        self.rn = [0] * n_nodes
        #: token state, held only by the current owner
        self.token_ln: Optional[List[int]] = [0] * n_nodes if node_id == 0 else None
        self.token_queue: Optional[List[int]] = [] if node_id == 0 else None

    # ------------------------------------------------------------------
    @property
    def has_token(self) -> bool:
        return self.token_ln is not None

    def _do_request(self) -> None:
        self.rn[self.node_id] += 1
        if self.has_token:
            self._grant()
            return
        seq = self.rn[self.node_id]
        for j in self.peers():
            self.env.send(self.node_id, j, SkRequest(self.node_id, seq))

    def _do_release(self) -> None:
        assert self.token_ln is not None and self.token_queue is not None
        self.token_ln[self.node_id] = self.rn[self.node_id]
        for j in range(self.n_nodes):
            if j == self.node_id or j in self.token_queue:
                continue
            if self.rn[j] == self.token_ln[j] + 1:
                self.token_queue.append(j)
        if self.token_queue:
            head = self.token_queue.pop(0)
            self._pass_token(head)

    def _pass_token(self, dst: int) -> None:
        assert self.token_ln is not None and self.token_queue is not None
        token = SkToken(self.token_ln, self.token_queue)
        self.token_ln = None
        self.token_queue = None
        self.env.send(self.node_id, dst, token)

    # ------------------------------------------------------------------
    def on_message(self, src: int, message: Message) -> None:
        if isinstance(message, SkRequest):
            self._on_request(message)
        elif isinstance(message, SkToken):
            self._on_token(message)
        else:
            raise TypeError(f"unexpected message {message!r}")

    def _on_request(self, msg: SkRequest) -> None:
        j = msg.origin
        self.rn[j] = max(self.rn[j], msg.seq)
        # An idle token holder serves an outstanding request at once.
        if (
            self.has_token
            and self.state is NodeState.IDLE
            and self.rn[j] == self.token_ln[j] + 1  # type: ignore[index]
        ):
            self._pass_token(j)

    def _on_token(self, msg: SkToken) -> None:
        if self.state is not NodeState.REQUESTING:
            raise RuntimeError(
                f"node {self.node_id} received the token unsolicited"
            )
        self.token_ln = list(msg.ln)
        self.token_queue = list(msg.queue)
        self._grant()
