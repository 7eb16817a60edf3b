"""Raymond's tree-based token algorithm [12].

The representative *structured* algorithm the paper positions itself
against: nodes form a static logical tree; each node knows only the
neighbor in the direction of the token (``holder``) and keeps a FIFO
queue of pending directions.  Requests and the PRIVILEGE token travel
edge by edge, giving O(log N) messages on a balanced tree and the
famous 4-messages-per-CS behaviour at heavy load — at the cost of
response times that grow with tree depth and of maintaining the
topology (the overheads §1 criticizes).

The tree is the array-heap layout by default (parent of i is
⌊(i−1)/2⌋, token starts at the root 0); an explicit parent vector can
be injected for other shapes (chains, stars) in tests and ablations.

Requires FIFO channels between neighbors for its correctness
argument; run it on a FIFO channel (``Scenario(..., fifo=True)``)
when delays are stochastic.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from repro.mutex.base import Env, Hooks, MutexNode, NodeState
from repro.net.message import Message

__all__ = ["RaymondNode", "heap_parents"]


class RyRequest(Message):
    kind = "REQUEST"
    __slots__ = ()


class RyToken(Message):
    kind = "TOKEN"
    __slots__ = ()


def heap_parents(n: int) -> List[Optional[int]]:
    """Balanced binary tree in array layout; root is node 0."""
    return [None if i == 0 else (i - 1) // 2 for i in range(n)]


class RaymondNode(MutexNode):
    """One node of Raymond's algorithm."""

    algorithm_name = "raymond"

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        env: Env,
        hooks: Hooks,
        *,
        parents: Optional[Sequence[Optional[int]]] = None,
    ) -> None:
        super().__init__(node_id, n_nodes, env, hooks)
        parent_vec = list(parents) if parents is not None else heap_parents(n_nodes)
        if len(parent_vec) != n_nodes:
            raise ValueError("parents must list one entry per node")
        self._neighbors = self._neighbor_set(parent_vec, node_id)
        #: direction of the token: ``self`` when held here
        root = parent_vec.index(None) if None in parent_vec else 0
        self.holder: int = (
            self.node_id if node_id == root else parent_vec[node_id]  # type: ignore[assignment]
        )
        self.request_q: Deque[int] = deque()  # neighbor ids or self
        self.asked = False  # outstanding REQUEST toward the holder

    @staticmethod
    def _neighbor_set(parents: Sequence[Optional[int]], node_id: int) -> set:
        neigh = set()
        p = parents[node_id]
        if p is not None:
            neigh.add(p)
        for j, pj in enumerate(parents):
            if pj == node_id:
                neigh.add(j)
        return neigh

    # ------------------------------------------------------------------
    def _do_request(self) -> None:
        self.request_q.append(self.node_id)
        self._assign_privilege()
        self._make_request()

    def _do_release(self) -> None:
        self._assign_privilege()
        self._make_request()

    # ------------------------------------------------------------------
    def on_message(self, src: int, message: Message) -> None:
        if isinstance(message, RyRequest):
            if src not in self._neighbors:
                raise RuntimeError(
                    f"request from non-neighbor {src} at node {self.node_id}"
                )
            self.request_q.append(src)
            self._assign_privilege()
            self._make_request()
        elif isinstance(message, RyToken):
            self.holder = self.node_id
            self.asked = False
            self._assign_privilege()
            self._make_request()
        else:
            raise TypeError(f"unexpected message {message!r}")

    # ------------------------------------------------------------------
    # Raymond's two standard procedures
    # ------------------------------------------------------------------
    def _assign_privilege(self) -> None:
        if (
            self.holder == self.node_id
            and self.state is not NodeState.IN_CS
            and self.request_q
        ):
            head = self.request_q.popleft()
            if head == self.node_id:
                if self.state is NodeState.REQUESTING:
                    self._grant()
                else:  # stale self-entry (cannot happen; defensive)
                    return
            else:
                self.holder = head
                self.asked = False
                self.env.send(self.node_id, head, RyToken())

    def _make_request(self) -> None:
        if (
            self.holder != self.node_id
            and self.request_q
            and not self.asked
            and self.state is not NodeState.IN_CS
        ):
            self.asked = True
            self.env.send(self.node_id, self.holder, RyRequest())
