"""TCP transport: one asyncio endpoint per node.

Frames are 4-byte big-endian length + pickle payload ``(src, dst,
message)``.  Pickle keeps the algorithm messages (plain slotted
classes) intact without a parallel schema; the codec therefore
*trusts its peers* — suitable for the lab/cluster deployments this
library targets, not for untrusted networks.  Replacing the pickle
framing (and adding acknowledgements: a frame in flight when its
receiver dies is still lost silently) is the ROADMAP's socket-runtime
item.  Meanwhile a transport fault is *said*: an unreachable peer, a
frame longer than :data:`MAX_FRAME_BYTES` and a frame addressed to
another node each become a :class:`ClusterTransportError` recorded on
``NodeHost.failure``, and no lock request waits on a cluster with one.

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
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.mutex.base import Hooks, MutexNode
from repro.net.message import Message
from repro.registry import get_algorithm
from repro.runtime.env import AsyncEnv
from repro.runtime.facade import ClusterTransportError, LockFacade

__all__ = ["MAX_FRAME_BYTES", "NodeHost", "TcpCluster"]

_HEADER = struct.Struct("!I")
_Stream = Tuple[asyncio.StreamReader, asyncio.StreamWriter]

#: the longest payload a host will allocate for on a peer's say-so (the
#: largest RCV message of an N=200 burst pickles to 18 KB)
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: connection attempts per peer before it counts as unreachable
#: (failed attempt k is followed by a 0.05·k s sleep: ~10 s in all)
CONNECT_ATTEMPTS = 20


class _BadFrame(Exception):
    """A frame no peer of ours would send."""


def _encode(src: int, dst: int, message: Message) -> bytes:
    payload = pickle.dumps((src, dst, message), protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload)) + payload


async def _read_frame(reader: asyncio.StreamReader) -> Optional[Tuple[int, int, Message]]:
    """The next frame, or None at end of stream."""
    try:
        header = await reader.readexactly(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise _BadFrame(
                f"frame of {length} bytes exceeds MAX_FRAME_BYTES "
                f"({MAX_FRAME_BYTES})"
            )
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
        on_failure: Optional[Callable[[ClusterTransportError], None]] = None,
    ) -> None:
        self.node_id = node_id
        self.endpoints = dict(endpoints)
        #: why this host's transport stopped, once it has
        self.failure: Optional[ClusterTransportError] = None
        self._on_failure = on_failure
        self.hooks = Hooks()
        self.env = AsyncEnv(self._send, seed=seed + node_id)
        factory = get_algorithm(algorithm)
        self.node: MutexNode = factory(
            node_id, len(endpoints), self.env, self.hooks, **(algo_kwargs or {})
        )
        self._server: Optional[asyncio.AbstractServer] = None
        #: outbound connections, by peer; the reader half only ever
        #: says one thing — end of stream, i.e. the peer has gone
        self._peers: Dict[int, _Stream] = {}
        self._inbound: Set[asyncio.StreamWriter] = set()
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
        for _, writer in self._peers.values():
            writer.close()
        # a stopped host must look stopped to its peers: without this
        # the handlers of accepted connections outlive the server
        for writer in list(self._inbound):
            writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # outbound
    # ------------------------------------------------------------------
    def _fail(self, detail: str, peer: Optional[int] = None) -> None:
        failure = ClusterTransportError(self.node_id, detail, peer)
        self.failure = self.failure or failure
        if self._on_failure is not None:
            self._on_failure(failure)

    def _send(self, src: int, dst: int, message: Message) -> None:
        # Called synchronously from algorithm code; the pump task does
        # the awaiting.
        self._send_queue.put_nowait((src, dst, message))

    async def _pump(self) -> None:
        while True:
            src, dst, message = await self._send_queue.get()
            frame = _encode(src, dst, message)
            try:
                try:
                    await self._write(dst, frame)
                except OSError:
                    # Reconnect once; the paper's model assumes a
                    # reliable network, so persistent failure is
                    # surfaced loudly.
                    await self._write(dst, frame, reconnect=True)
            except OSError as exc:
                # The pump ends here: a message the protocol counts as
                # delivered is lost, so nothing sent after it can be
                # trusted to mean what it says.
                self._fail(f"cannot reach node {dst}: {exc}", peer=dst)
                return

    async def _write(self, dst: int, frame: bytes, reconnect: bool = False) -> None:
        peer = self._peers.pop(dst, None)
        # A write into a connection the peer has closed succeeds (the
        # kernel buffers it), so ask the reader half first.
        if peer and (reconnect or peer[1].is_closing() or peer[0].at_eof()):
            peer[1].close()
            peer = None
        self._peers[dst] = peer = peer or await self._connect(dst)
        peer[1].write(frame)
        await peer[1].drain()

    async def _connect(self, dst: int) -> _Stream:
        host, port = self.endpoints[dst]
        for attempt in range(CONNECT_ATTEMPTS):
            try:
                return await asyncio.open_connection(host, port)
            except OSError:  # ConnectionError is one
                await asyncio.sleep(0.05 * (attempt + 1))
        raise ConnectionError(
            f"no connection to {host}:{port} in {CONNECT_ATTEMPTS} attempts"
        )

    # ------------------------------------------------------------------
    # inbound
    # ------------------------------------------------------------------
    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._inbound.add(writer)
        try:
            while True:
                frame = await _read_frame(reader)
                if frame is None:
                    return
                src, dst, message = frame
                if dst != self.node_id:
                    raise _BadFrame(f"frame for node {dst}")
                self.node.on_message(src, message)
        except _BadFrame as exc:
            # Recorded, not raised: nothing awaits a connection handler,
            # so an exception here would only be logged at exit.
            peer = writer.get_extra_info("peername")
            self._fail(f"{exc} from {peer}; connection closed")
        except asyncio.CancelledError:
            return  # orderly shutdown: the server is closing
        finally:
            self._inbound.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()


class TcpCluster(LockFacade):
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
        super().__init__()
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
                on_failure=self._on_failure,
            )
            for i in range(n_nodes)
        ]
        self.nodes: List[MutexNode] = [h.node for h in self.hosts]
        for h in self.hosts:
            h.hooks.subscribe_granted(self._on_granted)

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

    # ------------------------------------------------------------------
    async def start(self) -> None:
        for h in self.hosts:
            await h.start()

    async def stop(self) -> None:
        await asyncio.sleep(0.05)
        for h in self.hosts:
            await h.stop()
