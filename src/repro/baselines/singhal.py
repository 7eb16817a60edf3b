"""Singhal's heuristically-aided token algorithm [14].

The §2 "optimization on the Broadcast": instead of broadcasting a
token request to all N−1 peers, a node sends it only to the nodes its
local state vector marks as *probably requesting or holding* — the
heuristic halves the light-load message count (≈ N/2 on average)
while keeping the token semantics of Suzuki–Kasami.

Per node: ``sv[j]`` ∈ {R, E, H, N} (requesting / executing / holding
/ none) and ``sn[j]`` (highest sequence number heard); the token
carries its own ``tsv``/``tsn`` pair merged with the releaser's state
so information flows with the token.  The classic *staircase*
initialization (node i marks all j < i as R, node 0 holds the token)
establishes the invariant that for any two nodes, at least one
believes the other to be requesting — which is what guarantees every
request eventually reaches the token holder.

Requires reliable channels; stale requests are filtered by sequence
number, so FIFO is not needed.
"""

from __future__ import annotations

from typing import List, Optional

from repro.mutex.base import Env, Hooks, MutexNode, NodeState
from repro.net.message import Message

__all__ = ["SinghalNode"]

R, E, H, N = "R", "E", "H", "N"


class SgRequest(Message):
    kind = "REQUEST"
    __slots__ = ("origin", "seq")
    origin: int
    seq: int

    def __init__(self, origin: int, seq: int) -> None:
        self.origin = origin
        self.seq = seq


class SgToken(Message):
    kind = "TOKEN"
    __slots__ = ("tsv", "tsn")
    tsv: List[str]
    tsn: List[int]

    def __init__(self, tsv: List[str], tsn: List[int]) -> None:
        self.tsv = list(tsv)
        self.tsn = list(tsn)

    def size_units(self) -> int:
        return 1 + len(self.tsv)


class SinghalNode(MutexNode):
    """One node of Singhal's heuristic algorithm."""

    algorithm_name = "singhal"

    def __init__(
        self, node_id: int, n_nodes: int, env: Env, hooks: Hooks
    ) -> None:
        super().__init__(node_id, n_nodes, env, hooks)
        # Staircase initialization.
        self.sv = [R if j < node_id else N for j in range(n_nodes)]
        self.sn = [0] * n_nodes
        if node_id == 0:
            self.sv[0] = H
            self.tsv: Optional[List[str]] = [N] * n_nodes
            self.tsn: Optional[List[int]] = [0] * n_nodes
        else:
            self.tsv = None
            self.tsn = None
        #: round-robin pointer for fair token hand-off
        self._rr = (node_id + 1) % n_nodes

    # ------------------------------------------------------------------
    @property
    def has_token(self) -> bool:
        return self.tsv is not None

    def _do_request(self) -> None:
        me = self.node_id
        self.sn[me] += 1
        if self.sv[me] == H:
            self.sv[me] = E
            self._grant()
            return
        self.sv[me] = R
        seq = self.sn[me]
        # Heuristic target set: everyone believed to be requesting OR
        # holding/executing — the R entries are the staircase
        # "probably interested" set, and an E/H entry is the node we
        # believe has the token, which must hear the request or a
        # re-requesting ex-holder would tell nobody and starve.
        targets = [
            j
            for j in range(self.n_nodes)
            if j != me and self.sv[j] in (R, E, H)
        ]
        for j in targets:
            self.env.send(me, j, SgRequest(me, seq))

    def _do_release(self) -> None:
        me = self.node_id
        assert self.tsv is not None and self.tsn is not None
        self.sv[me] = N
        self.tsv[me] = N
        self.tsn[me] = self.sn[me]
        # Merge node state and token state: fresher sequence wins.
        for j in range(self.n_nodes):
            if self.sn[j] > self.tsn[j]:
                self.tsn[j] = self.sn[j]
                self.tsv[j] = self.sv[j]
            else:
                self.sn[j] = self.tsn[j]
                self.sv[j] = self.tsv[j]
        nxt = self._next_requester()
        if nxt is None:
            self.sv[me] = H  # nobody waiting: keep the token
        else:
            self._pass_token(nxt)

    def _next_requester(self) -> Optional[int]:
        """Round-robin over nodes the token believes are requesting."""
        assert self.tsv is not None
        n = self.n_nodes
        for k in range(n):
            j = (self._rr + k) % n
            if j != self.node_id and self.tsv[j] == R:
                self._rr = (j + 1) % n
                return j
        return None

    def _pass_token(self, dst: int) -> None:
        assert self.tsv is not None and self.tsn is not None
        self.tsv[dst] = N  # its pending request is being served
        token = SgToken(self.tsv, self.tsn)
        self.tsv = None
        self.tsn = None
        self.sv[dst] = E
        self.env.send(self.node_id, dst, token)

    # ------------------------------------------------------------------
    def on_message(self, src: int, message: Message) -> None:
        if isinstance(message, SgRequest):
            self._on_request(message)
        elif isinstance(message, SgToken):
            self._on_token(message)
        else:
            raise TypeError(f"unexpected message {message!r}")

    def _on_request(self, msg: SgRequest) -> None:
        j, n = msg.origin, msg.seq
        if n <= self.sn[j]:
            return  # stale or duplicate
        self.sn[j] = n
        me = self.node_id
        state = self.sv[me]
        if state == N:
            self.sv[j] = R
        elif state == R:
            if self.sv[j] != R:
                # We are requesting too and j did not know: tell it,
                # so the mutual-knowledge invariant is restored.
                self.sv[j] = R
                self.env.send(me, j, SgRequest(me, self.sn[me]))
        elif state == E:
            self.sv[j] = R
        elif state == H:
            # Idle holder: hand the token straight over.
            self.sv[j] = R
            assert self.tsv is not None and self.tsn is not None
            self.tsv[j] = R
            self.tsn[j] = n
            self.sv[me] = N
            self._pass_token(j)

    def _on_token(self, msg: SgToken) -> None:
        if self.state is not NodeState.REQUESTING:
            raise RuntimeError(
                f"node {self.node_id} received the token unsolicited"
            )
        self.tsv = list(msg.tsv)
        self.tsn = list(msg.tsn)
        self.sv[self.node_id] = E
        self._grant()
