"""The lock façade both clusters expose, and the one wait behind it.

``acquire`` waits for *grant or failure*: a cluster whose transport
has lost a peer can never grant, so the wait ends with the typed
:class:`ClusterTransportError` the transport recorded instead of
running out a timeout — or, with ``timeout=None``, never ending.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Dict, List, Optional

from repro.mutex.base import MutexNode, NodeState

__all__ = ["ClusterTransportError", "LockFacade"]


class ClusterTransportError(ConnectionError):
    """Node ``node_id``'s transport failed — ``peer`` is the node it
    could not reach, or None when the fault is a frame it was sent."""

    def __init__(self, node_id: int, detail: str, peer: Optional[int] = None):
        super().__init__(f"node {node_id}: {detail}")
        self.node_id = node_id
        self.peer = peer


class LockFacade:
    """``acquire``/``release``/``lock`` and ``async with`` over
    ``self.nodes``.  A subclass fills ``nodes``, subscribes
    :meth:`_on_granted` to its nodes' hooks, provides ``start``/``stop``
    and reports transport faults through :meth:`_on_failure`."""

    nodes: List[MutexNode]

    def __init__(self) -> None:
        self._granted: Dict[int, asyncio.Event] = {}
        #: the first transport failure; every acquire from then on raises it
        self.failure: Optional[ClusterTransportError] = None

    async def __aenter__(self):
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def _on_granted(self, node_id: int) -> None:
        event = self._granted.get(node_id)
        if event is not None:
            event.set()

    def _on_failure(self, failure: ClusterTransportError) -> None:
        self.failure = self.failure or failure
        for event in self._granted.values():
            event.set()

    async def acquire(self, node_id: int, timeout: Optional[float] = None) -> None:
        """Request the CS on behalf of ``node_id`` and wait for it."""
        if self.failure is not None:
            raise self.failure
        node = self.nodes[node_id]
        event = self._granted[node_id] = asyncio.Event()
        try:
            node.request_cs()
            if node.state is NodeState.IN_CS:  # granted synchronously
                return
            await asyncio.wait_for(event.wait(), timeout)
            if node.state is not NodeState.IN_CS:  # woken by a failure
                raise self.failure
        finally:
            self._granted.pop(node_id, None)

    def release(self, node_id: int) -> None:
        self.nodes[node_id].release_cs()

    @contextlib.asynccontextmanager
    async def lock(self, node_id: int, timeout: Optional[float] = None):
        """``async with cluster.lock(i): ...`` — acquire/release."""
        await self.acquire(node_id, timeout)
        try:
            yield
        finally:
            self.release(node_id)
