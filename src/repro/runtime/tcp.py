"""TCP transport: one asyncio endpoint per node.

Frames are 4-byte big-endian length + pickle payload ``(src, dst,
message)``.  Pickle keeps the algorithm messages (plain slotted
classes) intact without a parallel schema; the codec therefore
*trusts its peers* — suitable for the lab/cluster deployments this
library targets, not for untrusted networks.

:class:`TcpCluster` is the convenience harness used by the examples
and integration tests: it starts N :class:`NodeHost` endpoints on
localhost and exposes the same acquire/release/lock façade as
:class:`~repro.runtime.local.LocalCluster`.
"""

from __future__ import annotations

import asyncio
import contextlib
import pickle
import struct
from typing import Dict, List, Optional, Tuple

from repro.mutex.base import Hooks, MutexNode, NodeState
from repro.net.message import Message
from repro.registry import get_algorithm
from repro.runtime.env import AsyncEnv

__all__ = ["NodeHost", "TcpCluster"]

_HEADER = struct.Struct("!I")


def _encode(src: int, dst: int, message: Message) -> bytes:
    payload = pickle.dumps((src, dst, message), protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload)) + payload


async def _read_frame(reader: asyncio.StreamReader) -> Optional[Tuple[int, int, Message]]:
    try:
        header = await reader.readexactly(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    return pickle.loads(payload)


class NodeHost:
    """One algorithm node listening on a TCP port."""

    def __init__(
        self,
        node_id: int,
        endpoints: Dict[int, Tuple[str, int]],
        *,
        algorithm: str = "rcv",
        seed: int = 0,
        algo_kwargs: Optional[dict] = None,
    ) -> None:
        self.node_id = node_id
        self.endpoints = dict(endpoints)
        self.hooks = Hooks()
        self.env = AsyncEnv(self._send, seed=seed + node_id)
        factory = get_algorithm(algorithm)
        self.node: MutexNode = factory(
            node_id, len(endpoints), self.env, self.hooks, **(algo_kwargs or {})
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._send_queue: asyncio.Queue = asyncio.Queue()
        self._pump_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        host, port = self.endpoints[self.node_id]
        self._server = await asyncio.start_server(self._on_client, host, port)
        self._pump_task = asyncio.ensure_future(self._pump())
        self.node.start()

    async def stop(self) -> None:
        if self._pump_task is not None:
            self._pump_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._pump_task
        for writer in self._writers.values():
            writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # outbound
    # ------------------------------------------------------------------
    def _send(self, src: int, dst: int, message: Message) -> None:
        # Called synchronously from algorithm code; the pump task does
        # the awaiting.
        self._send_queue.put_nowait((src, dst, message))

    async def _pump(self) -> None:
        while True:
            src, dst, message = await self._send_queue.get()
            try:
                writer = await self._writer_for(dst)
                writer.write(_encode(src, dst, message))
                await writer.drain()
            except (ConnectionError, OSError):
                # Reconnect once; the paper's model assumes a reliable
                # network, so persistent failure is surfaced loudly.
                self._writers.pop(dst, None)
                writer = await self._writer_for(dst)
                writer.write(_encode(src, dst, message))
                await writer.drain()

    async def _writer_for(self, dst: int) -> asyncio.StreamWriter:
        writer = self._writers.get(dst)
        if writer is not None and not writer.is_closing():
            return writer
        host, port = self.endpoints[dst]
        for attempt in range(20):
            try:
                _, writer = await asyncio.open_connection(host, port)
                break
            except (ConnectionError, OSError):
                await asyncio.sleep(0.05 * (attempt + 1))
        else:
            raise ConnectionError(f"node {self.node_id} cannot reach node {dst}")
        self._writers[dst] = writer
        return writer

    # ------------------------------------------------------------------
    # inbound
    # ------------------------------------------------------------------
    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                frame = await _read_frame(reader)
                if frame is None:
                    return
                src, dst, message = frame
                if dst != self.node_id:  # misrouted frame; drop loudly
                    raise RuntimeError(
                        f"node {self.node_id} received frame for node {dst}"
                    )
                self.node.on_message(src, message)
        except asyncio.CancelledError:
            return  # orderly shutdown: the server is closing
        finally:
            with contextlib.suppress(Exception):
                writer.close()


class TcpCluster:
    """N :class:`NodeHost` endpoints on localhost, one per node."""

    def __init__(
        self,
        n_nodes: int,
        *,
        algorithm: str = "rcv",
        base_port: int = 0,
        host: str = "127.0.0.1",
        seed: int = 0,
        algo_kwargs: Optional[dict] = None,
    ) -> None:
        self.n_nodes = n_nodes
        if base_port == 0:
            base_port = self._pick_free_ports(host, n_nodes)
        self.endpoints = {
            i: (host, base_port + i) for i in range(n_nodes)
        }
        self.hosts: List[NodeHost] = [
            NodeHost(
                i,
                self.endpoints,
                algorithm=algorithm,
                seed=seed,
                algo_kwargs=algo_kwargs,
            )
            for i in range(n_nodes)
        ]
        self._granted: Dict[int, asyncio.Event] = {}
        for h in self.hosts:
            h.hooks.subscribe_granted(self._make_grant_cb())

    @staticmethod
    def _pick_free_ports(host: str, n: int) -> int:
        import socket

        # Find a base so that [base, base+n) are all free right now:
        # the kernel vouches only for the port it picks, and a busy
        # host has neighbours in use (or in TIME_WAIT), so bind them all.
        for _ in range(64):
            with contextlib.ExitStack() as probes:
                first = probes.enter_context(socket.socket())
                first.bind((host, 0))
                base = first.getsockname()[1]
                try:
                    for offset in range(1, n):
                        probe = probes.enter_context(socket.socket())
                        probe.bind((host, base + offset))
                except (OSError, OverflowError):
                    continue
                return base
        raise OSError(f"no run of {n} free consecutive ports on {host}")

    def _make_grant_cb(self):
        def cb(node_id: int) -> None:
            event = self._granted.get(node_id)
            if event is not None:
                event.set()

        return cb

    # ------------------------------------------------------------------
    async def start(self) -> None:
        for h in self.hosts:
            await h.start()

    async def stop(self) -> None:
        await asyncio.sleep(0.05)
        for h in self.hosts:
            await h.stop()

    async def __aenter__(self) -> "TcpCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    async def acquire(self, node_id: int, timeout: Optional[float] = None) -> None:
        node = self.hosts[node_id].node
        event = asyncio.Event()
        self._granted[node_id] = event
        node.request_cs()
        if node.state is NodeState.IN_CS:
            self._granted.pop(node_id, None)
            return
        try:
            await asyncio.wait_for(event.wait(), timeout)
        finally:
            self._granted.pop(node_id, None)

    def release(self, node_id: int) -> None:
        self.hosts[node_id].node.release_cs()

    @contextlib.asynccontextmanager
    async def lock(self, node_id: int, timeout: Optional[float] = None):
        await self.acquire(node_id, timeout)
        try:
            yield
        finally:
            self.release(node_id)
