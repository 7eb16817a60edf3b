"""Tests for the asyncio runtime (local and TCP clusters)."""

import asyncio

import pytest

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
            await c.acquire(1, timeout=5)
            c.release(1)
            return c.messages_sent

    assert run(go()) > 0


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
def test_tcp_cluster_mutual_exclusion():
    async def go():
        inside = [0]
        overlaps = []

        async def worker(c, i):
            async with c.lock(i, timeout=20):
                inside[0] += 1
                if inside[0] > 1:
                    overlaps.append(i)
                await asyncio.sleep(0.002)
                inside[0] -= 1

        async with TcpCluster(3, algorithm="rcv", seed=4) as c:
            await asyncio.gather(*(worker(c, i) for i in range(3)))
        return overlaps

    assert run(go()) == []


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


def test_tcp_host_refuses_oversize_and_misrouted_frames():
    async def go():
        async with TcpCluster(2, algorithm="rcv", seed=7) as c:
            for frame, said in (
                (tcp._HEADER.pack(tcp.MAX_FRAME_BYTES + 1), "exceeds MAX_FRAME_BYTES"),
                (tcp._encode(0, 5, None), "frame for node 5"),
            ):
                c.failure = c.hosts[1].failure = None
                reader, writer = await asyncio.open_connection(*c.endpoints[1])
                writer.write(frame)
                assert await asyncio.wait_for(reader.read(), 5) == b""  # closed
                writer.close()
                assert c.hosts[1].failure is c.failure
                assert c.failure.node_id == 1 and c.failure.peer is None
                assert said in str(c.failure)

    run(go())
