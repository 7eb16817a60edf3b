"""Tests for the asyncio runtime (local and TCP clusters)."""

import ast
import asyncio
from pathlib import Path

import pytest

from repro.baselines.ricart_agrawala import RaRequest
from repro.canon import dumps
from repro.core.messages import SyncRequest
from repro.core.state import SystemInfo
from repro.registry import algorithm_names
from repro.runtime import ClusterTransportError, LocalCluster, TcpCluster
from repro.runtime import tcp


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# LocalCluster
# ----------------------------------------------------------------------
def test_local_cluster_single_lock_cycle():
    async def go():
        async with LocalCluster(3, algorithm="rcv", seed=1) as c:
            ids = []
            send = c.env._sender
            c.env._sender = lambda *sent: (send(*sent), ids.append(sent[2].msg_id))
            await c.acquire(1, timeout=5)
            c.release(1)
            return c.messages_sent, ids

    sent, ids = run(go())
    assert sent > 0 and ids == list(range(1, sent + 1))  # ids are send numbers


@pytest.mark.parametrize("algorithm", ["rcv", "ricart_agrawala", "suzuki_kasami"])
def test_local_cluster_serializes_critical_sections(algorithm):
    async def go():
        overlaps = []
        inside = [0]

        async def worker(c, i):
            for _ in range(3):
                async with c.lock(i, timeout=10):
                    inside[0] += 1
                    if inside[0] > 1:
                        overlaps.append(i)
                    await asyncio.sleep(0.001)
                    inside[0] -= 1

        async with LocalCluster(4, algorithm=algorithm, seed=2) as c:
            await asyncio.gather(*(worker(c, i) for i in range(4)))
        return overlaps

    assert run(go()) == []


def test_local_cluster_nonfifo_jitter():
    async def go():
        done = []

        async def worker(c, i):
            async with c.lock(i, timeout=10):
                done.append(i)

        async with LocalCluster(
            5, algorithm="rcv", delay=0.003, jitter=0.002, seed=9
        ) as c:
            await asyncio.gather(*(worker(c, i) for i in range(5)))
        return done

    assert sorted(run(go())) == [0, 1, 2, 3, 4]


def test_local_cluster_validates_jitter():
    with pytest.raises(ValueError):
        LocalCluster(2, jitter=0.5, delay=0.1)


def test_local_cluster_lock_releases_on_exception():
    async def go():
        async with LocalCluster(2, algorithm="rcv", seed=0) as c:
            with pytest.raises(RuntimeError):
                async with c.lock(0, timeout=5):
                    raise RuntimeError("inside CS")
            # lock must be free again
            await c.acquire(1, timeout=5)
            c.release(1)

    run(go())


def test_local_cluster_immediate_grant_path():
    """The token holder (suzuki node 0) is granted synchronously."""

    async def go():
        async with LocalCluster(3, algorithm="suzuki_kasami", seed=0) as c:
            await c.acquire(0, timeout=1)
            c.release(0)

    run(go())


# ----------------------------------------------------------------------
# TcpCluster
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", algorithm_names())
def test_tcp_cluster_mutual_exclusion(algorithm):
    """Every registry algorithm, two rounds at N=5 over real sockets:
    the canon carries every message kind there is, and no two critical
    sections overlap."""

    async def go():
        inside = [0]
        overlaps = []
        entries = []

        async def worker(c, i):
            for _ in range(2):
                async with c.lock(i, timeout=20):
                    inside[0] += 1
                    if inside[0] > 1:
                        overlaps.append(i)
                    entries.append(i)
                    await asyncio.sleep(0.002)
                    inside[0] -= 1

        async with TcpCluster(5, algorithm=algorithm, seed=4) as c:
            await asyncio.gather(*(worker(c, i) for i in range(5)))
            assert c.failure is None
        return overlaps, sorted(entries)

    assert run(go()) == ([], sorted(2 * list(range(5))))


def test_tcp_cluster_repeated_rounds():
    async def go():
        count = [0]

        async def worker(c, i):
            for _ in range(2):
                async with c.lock(i, timeout=20):
                    count[0] += 1

        async with TcpCluster(3, algorithm="ricart_agrawala", seed=5) as c:
            await asyncio.gather(*(worker(c, i) for i in range(3)))
        return count[0]

    assert run(go()) == 6


@pytest.mark.parametrize("connected_before", [False, True])
def test_tcp_acquire_raises_when_a_peer_is_gone(monkeypatch, connected_before):
    """``acquire(timeout=None)`` used to wait forever: the pump task
    died with an exception nobody read."""
    monkeypatch.setattr(tcp, "CONNECT_ATTEMPTS", 2)

    async def go():
        async with TcpCluster(3, algorithm="ricart_agrawala", seed=6) as c:
            if connected_before:
                async with c.lock(0, timeout=20):
                    pass
            await c.hosts[2].stop()
            await asyncio.sleep(0.05)  # let node 0 see the connection end
            with pytest.raises(ClusterTransportError) as raised:
                await asyncio.wait_for(c.acquire(0), 20)
            assert (raised.value.node_id, raised.value.peer) == (0, 2)
            assert "node 0: cannot reach node 2" in str(raised.value)
            assert c.hosts[0].failure is raised.value
            with pytest.raises(ClusterTransportError):  # and stays said
                await c.acquire(1)

    run(go())


def _framed(payload: bytes, version: int = tcp.WIRE_VERSION) -> bytes:
    return tcp._HEADER.pack(version, len(payload)) + payload


def test_tcp_host_refuses_oversize_and_misrouted_frames():
    """Each frame no peer would send ends the connection and is said
    once, as a ClusterTransportError on the host naming the kind and
    the peer — the truncated payload, the 1-tuple and the ill-typed
    field once killed the connection handler with an exception nobody
    read, and recorded nothing."""
    sync = _framed(dumps((0, 1, SyncRequest(SystemInfo(2)))).encode())
    cases = (
        (tcp._HEADER.pack(tcp.WIRE_VERSION, tcp.MAX_FRAME_BYTES + 1), "exceeds MAX_FRAME_BYTES"),
        (tcp._encode(0, 5, SyncRequest(SystemInfo(2))), "frame for node 5"),
        (_framed(b"[]", version=2), "wire version 2"),
        (_framed(sync[tcp._HEADER.size : -3]), "undecodable frame: not a canon text"),
        (_framed(dumps((0,)).encode()), "frame is not (src, dst, message)"),
        (_framed(dumps((0, 1, RaRequest(1, 0))).encode()), "not a message kind"),
        (_framed(b"[" * 100_000), "undecodable frame"),
        (_framed(b'["t",["i",0],["i",1],["m","SYNC_REQ",["x",["none"]]]]'), "carries the fields"),
        # well framed, but a field of the wrong type: it once reached
        # on_message and escaped the handler as an AttributeError
        (
            _framed(
                b'["t",["i",0],["i",1],["m","RM",["home",["i",0]],["hops",["i",0]],'
                b'["si",["si",[],[[],[]],[0,0],[0,0]]],["tup",["i",5]],'
                b'["unvisited",["t",["i",1]]]]]'
            ),
            "a RM's tup must be ReqTuple",
        ),
    )

    async def go():
        async with TcpCluster(2, algorithm="rcv", seed=7) as c:
            for frame, said in cases:
                c.failure = c.hosts[1].failure = None
                reader, writer = await asyncio.open_connection(*c.endpoints[1])
                writer.write(frame)
                assert await asyncio.wait_for(reader.read(), 5) == b""  # closed
                writer.close()
                assert c.hosts[1].failure is c.failure
                assert c.failure.node_id == 1 and c.failure.peer is None
                assert said in str(c.failure)
                assert "from ('127.0.0.1', " in str(c.failure)
            # and a well-formed frame is still a message
            reader, writer = await asyncio.open_connection(*c.endpoints[1])
            c.failure = c.hosts[1].failure = None
            writer.write(sync)
            await writer.drain()
            await asyncio.sleep(0.05)
            writer.close()
            assert c.failure is None

    run(go())


def test_no_runtime_module_imports_pickle():
    """The wire is the canon's: nothing under ``repro/runtime`` may
    unpickle what a peer sends."""
    runtime = Path(__file__).resolve().parent.parent / "src" / "repro" / "runtime"
    importers = []
    for path in sorted(runtime.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = (
                [alias.name for alias in node.names]
                if isinstance(node, ast.Import)
                else [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            )
            if any(name.split(".")[0] in ("pickle", "_pickle") for name in names):
                importers.append(path.name)
    assert importers == []
