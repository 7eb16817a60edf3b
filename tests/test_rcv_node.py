"""Unit tests for the RCV node (the MPM algorithm, §4.1)."""

import pytest

from repro.core.errors import ProtocolInvariantError
from repro.core.messages import EnterMessage, InformMessage, RequestMessage
from repro.core.tuples import ReqTuple
from repro.mutex.base import NodeState
from tests.conftest import started_engine


def test_request_launches_rm_with_snapshot():
    engine = started_engine("rcv", 4)
    sent = []
    engine.network.add_tap(lambda s, d, m, at: sent.append((s, d, m)))
    engine.drivers[2].issue()
    assert len(sent) == 1
    src, dst, msg = sent[0]
    assert src == 2 and dst != 2
    assert isinstance(msg, RequestMessage)
    assert msg.home == 2
    assert msg.tup == ReqTuple(2, 1)
    assert dst not in msg.unvisited
    assert 2 not in msg.unvisited
    assert len(msg.unvisited) == 2
    # snapshot independence: mutating the node's SI (through the
    # copy-on-write ownership API) must not touch the in-flight
    # message
    engine.nodes[2].si.own_row(2).mnl.clear()
    assert msg.si.rows[2].mnl == [ReqTuple(2, 1)]


def test_own_timestamp_increments_per_request():
    engine = started_engine("rcv", 3, hold=1.0)
    engine.drivers[0].issue()
    engine.sim.run()
    first_ts = engine.nodes[0].si.done[0]
    engine.drivers[0].issue()
    engine.sim.run()
    assert engine.nodes[0].si.done[0] > first_ts


def test_single_node_system_grants_immediately():
    engine = started_engine("rcv", 1)
    engine.drivers[0].issue()
    assert engine.nodes[0].state is NodeState.IN_CS
    engine.nodes[0].release_cs()
    assert engine.nodes[0].state is NodeState.IDLE


def test_single_request_completes_and_counts_messages():
    """Light-load message count.

    The paper's §6.1.1 says [N/2]+1 forwards, but its own pseudocode
    ships the home's NSIT row (with the fresh tuple) inside the RM's
    initial snapshot (lines 4–5, 11), so after f forwards the request
    holds f+1 votes and commits at the first f with 2(f+1) > N, i.e.
    exactly ⌊N/2⌋ RM sends + 1 EM (see EXPERIMENTS.md, deviation D1).
    """
    for n in (4, 5, 6, 8, 10, 11):
        engine = started_engine("rcv", n, seed=1)
        # home id n-1: no id-0 tie advantage -> strict majority needed.
        engine.drivers[n - 1].issue()
        engine.sim.run()
        assert engine.nodes[n - 1].cs_count == 1
        rm = engine.network.stats.by_kind.get("RM", 0)
        em = engine.network.stats.by_kind.get("EM", 0)
        assert em == 1
        assert rm == n // 2, f"n={n}: expected ⌊N/2⌋ RM sends, got {rm}"
        assert engine.network.stats.by_kind.get("IM", 0) == 0


def test_node_zero_single_request_uses_sentinel_tie():
    """Node 0 wins the equality tie (line-12 sentinel), saving one
    more hop when N is even: N/2 votes suffice."""
    engine = started_engine("rcv", 6, seed=1)
    engine.drivers[0].issue()
    engine.sim.run()
    assert engine.network.stats.by_kind["RM"] == 2  # N/2 - 1 forwards
    assert engine.nodes[0].cs_count == 1


def test_stale_em_is_counted_not_fatal():
    engine = started_engine("rcv", 3)
    node = engine.nodes[0]
    em = EnterMessage(ReqTuple(0, 99), node.si.snapshot())
    node.on_message(1, em)  # node never requested
    assert node.counters["stale_em"] == 1
    assert node.state is NodeState.IDLE


def test_im_for_wrong_node_raises():
    engine = started_engine("rcv", 3)
    node = engine.nodes[0]
    im = InformMessage(ReqTuple(2, 1), ReqTuple(1, 1), node.si.snapshot())
    with pytest.raises(ProtocolInvariantError):
        node.on_message(1, im)


def test_im_after_finish_sends_em_to_successor():
    """MPM lines 26–29: a predecessor that already left the CS relays
    the EM immediately."""
    engine = started_engine("rcv", 3, hold=1.0)
    node = engine.nodes[0]
    engine.drivers[0].issue()
    engine.sim.run()
    assert node.cs_count == 1
    done_tup = ReqTuple(0, node.si.done[0])
    sent = []
    engine.network.add_tap(lambda s, d, m, at: sent.append(m))
    im = InformMessage(done_tup, ReqTuple(2, 1), node.si.snapshot())
    node.on_message(1, im)
    assert len(sent) == 1 and isinstance(sent[0], EnterMessage)
    assert sent[0].target_tup == ReqTuple(2, 1)


def test_im_before_finish_sets_next():
    engine = started_engine("rcv", 4)
    node = engine.nodes[1]
    engine.drivers[1].issue()
    current = node.current_tup
    im = InformMessage(current, ReqTuple(3, 1), node.si.snapshot())
    node.on_message(0, im)
    assert node.next_tup == ReqTuple(3, 1)


def test_conflicting_ims_raise():
    engine = started_engine("rcv", 4)
    node = engine.nodes[1]
    engine.drivers[1].issue()
    current = node.current_tup
    node.on_message(0, InformMessage(current, ReqTuple(2, 1), node.si.snapshot()))
    with pytest.raises(ProtocolInvariantError):
        node.on_message(
            2, InformMessage(current, ReqTuple(3, 1), node.si.snapshot())
        )


def test_release_wakes_next_with_em():
    engine = started_engine("rcv", 4, hold=5.0)
    for driver in engine.drivers:
        driver.issue()
    engine.sim.run()
    # all four executed, strictly one EM per grant
    assert all(n.cs_count == 1 for n in engine.nodes)
    assert engine.network.stats.by_kind["EM"] == 4
    assert engine.safety.entries == 4


def test_unexpected_message_type_raises():
    engine = started_engine("rcv", 2)

    class Weird:
        kind = "W"

    with pytest.raises(TypeError):
        engine.nodes[0].on_message(1, Weird())


def test_counters_snapshot_keys():
    engine = started_engine("rcv", 3)
    snap = engine.nodes[0].counter_snapshot()
    assert {
        "rm_launched",
        "rm_forwarded",
        "rm_parked",
        "stale_em",
        "stale_rm",
        "nonl_inconsistencies",
        "parked_now",
    } <= set(snap)


def test_rm_never_revisits_a_node():
    engine = started_engine("rcv", 8, seed=3)
    visits = {}  # msg home -> set of receivers

    def tap(src, dst, msg, at):
        if isinstance(msg, RequestMessage):
            seen = visits.setdefault((msg.home, msg.tup.ts), [])
            assert dst not in seen, "RM revisited a node"
            assert dst != msg.home, "RM returned to its home"
            seen.append(dst)

    engine.network.add_tap(tap)
    for driver in engine.drivers:
        driver.issue()
    engine.sim.run()
    assert all(n.cs_count == 1 for n in engine.nodes)
