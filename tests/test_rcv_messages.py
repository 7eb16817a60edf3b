"""Unit tests for the RCV message types and the base Message."""

from repro.core.messages import EnterMessage, InformMessage, RequestMessage
from repro.core.state import SystemInfo
from repro.core.tuples import ReqTuple
from repro.net.message import Message


def si_with_content(n=3):
    si = SystemInfo(n)
    si.nonl = [ReqTuple(0, 1)]
    si.rows[1].mnl = [ReqTuple(1, 1), ReqTuple(2, 1)]
    return si


def _ids_sent(spec):
    from repro.engine import Engine

    engine = Engine(spec.build_scenario())
    ids = []
    engine.network.add_tap(lambda src, dst, msg, at: ids.append(msg.msg_id))
    engine.run(require_completion=False)
    return ids


def test_message_ids_are_the_runs_send_numbers():
    """A message's id is its send number in its run: unique and
    increasing within the run, and the same in every run of one cell,
    so a trace can name one message and a second run find it."""
    from repro.experiments.parallel import CellSpec

    spec = CellSpec("rcv", 6, 3, ("burst", 2), faults=(("dup", 0.2),))
    first = _ids_sent(spec)
    # a duplicated send is tapped once per delivery, under one id
    assert first == sorted(first) and len(set(first)) > 10
    assert set(first) <= set(range(1, len(first) + 1))
    assert _ids_sent(spec) == first


def test_base_message_size_is_one():
    assert Message().size_units() == 1
    assert Message().describe().startswith("MSG#")


def test_rm_fields_and_describe():
    si = si_with_content()
    rm = RequestMessage(2, ReqTuple(2, 5), frozenset({0, 1}), si, hops=3)
    assert rm.kind == "RM"
    assert rm.home == 2
    assert rm.unvisited == (0, 1)  # sorted tuple: the rng population
    text = rm.describe()
    assert "home=2" in text and "hops=3" in text and "<2,5>" in text


def test_snapshot_messages_weigh_their_payload():
    si = si_with_content()
    rm = RequestMessage(0, ReqTuple(0, 1), frozenset(), si)
    # 1 + |NONL| + sum |MNL| = 1 + 1 + 2
    assert rm.size_units() == 4
    em = EnterMessage(ReqTuple(0, 1), si)
    assert em.size_units() == 4
    empty = EnterMessage(ReqTuple(0, 1), SystemInfo(3))
    assert empty.size_units() == 1


def test_im_carries_predecessor_and_successor():
    si = si_with_content()
    im = InformMessage(ReqTuple(0, 1), ReqTuple(2, 1), si)
    assert im.kind == "IM"
    assert im.pred_tup == ReqTuple(0, 1)
    assert im.next_node == 2
    assert "<0,1>" in im.describe() and "<2,1>" in im.describe()


def test_kind_tags_match_paper_names():
    si = SystemInfo(2)
    assert RequestMessage(0, ReqTuple(0, 1), frozenset(), si).kind == "RM"
    assert EnterMessage(ReqTuple(0, 1), si).kind == "EM"
    assert InformMessage(ReqTuple(0, 1), ReqTuple(1, 1), si).kind == "IM"
