"""The two wires under hostile input: the cell service's HTTP/1.1
reader, and the TCP runtime's canon frames.

Both ends of the wire read heads with one function,
``protocol.read_head``, and frame bodies with one rule,
``protocol.body_length``.  These properties feed them generated heads
and heads mutated from the bytes the ``test_wire_*`` examples in
``tests/test_service.py`` pin, at three depths:

* the reader and the length rule directly: each input ends in a head
  (or ``None`` at end of stream) and a length within the limit, or in
  a :class:`WireError`, never in another exception;
* a live ``CellServer``: each connection ends, promptly, in replies
  that are all JSON in the one format (a refusal has an ``error``),
  no handler thread raises, and a well-formed request on a fresh
  connection still gets its reply;
* ``ServiceBackend`` against a one-shot fake server that answers with
  the mutated reply: each call ends, promptly, in ``(status, text)``
  or a :class:`BackendUnavailableError`, and a refused reply leaves no
  socket open.

The TCP runtime's frames (``repro.runtime.tcp``, the canon of
``(src, dst, message)``) are held to the same rule: every message every
registry algorithm sends comes back with an equal fingerprint, and
every truncated, bit-flipped, over-nested, unknown-kind, wrong-version
or oversize frame ends, promptly, as frames or as the host's one typed
refusal — never as ``RecursionError``, ``KeyError``,
``UnicodeDecodeError`` or any other exception.

The example budgets are fixed and keep the file to a few seconds.
"""

from __future__ import annotations

import asyncio
import io
import json
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.backends import BackendUnavailableError, ServiceBackend
from repro.experiments.protocol import (
    MAX_BODY,
    PROTOCOL_VERSION,
    WireError,
    body_length,
    read_head,
)
from repro.canon import dumps, fingerprint_message
from repro.engine import Engine
from repro.experiments.service import CellServer
from repro.net.message import message_kinds, payload_fields
from repro.registry import algorithm_names, get_algorithm
from repro.runtime import tcp
from repro.workload import BurstArrivals, Scenario

#: seconds any one input may take end to end; a hang is a failure
BOUND = 5.0

_CLAIM = b'{"key": "cell-1", "owner": "w", "ttl": 60}'
_STATS = b"GET /v3/stats HTTP/1.1\r\nHost: h\r\n\r\n"

#: request bytes the ``test_wire_*`` examples pin, well-formed or not
REQUESTS = [
    _STATS,
    b"GET /v3/stats HTTP/1.0\r\n\r\n",
    b"GET /v3/cells/cell-1 HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
    b"POST /v3/claim HTTP/1.1\r\nHost: h\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n%s" % (len(_CLAIM), _CLAIM),
    b"POST /v3/claim HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n"
    b"%x\r\n%s\r\n0\r\n\r\n" % (len(_CLAIM), _CLAIM),
    b"POST /v3/claim HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n"
    b"Content-Length: %d\r\n\r\n%s" % (len(_CLAIM), _CLAIM),
    b"PUT /v3/cells/cell-1 HTTP/1.1\r\nHost: h\r\nExpect: 100-continue\r\n"
    b'Content-Length: 13\r\n\r\n{"value": "x"}',
    b"POST /v3/claim HTTP/1.1\r\nHost: h\r\nContent-Length: 99999999999\r\n\r\n",
    b"POST /v1/claim HTTP/1.1\r\nHost: h\r\nContent-Length: 12\r\n\r\n"
    b'{"key": "k"}',
    b"GET /v3/stats HTTP/2.0\r\n\r\n",
    b"GET /v3/stats HTTP/1.1\r\n folded: v\r\nno colon\r\n\r\n",
    b"DELETE /v3/stats HTTP/1.1\r\nHost: h\r\n\r\n",
    b"GET /v3/stats HTTP/1.1\r\n" + b"X-h: v\r\n" * 101 + b"\r\n",
    b"GET /v3/stats HTTP/1.1\r\nX-h: " + b"v" * 65530 + b"\r\n\r\n",
    b"GET http://[x/v3/stats HTTP/1.1\r\n\r\n",
]

_STATS_BODY = json.dumps({"protocol": PROTOCOL_VERSION}).encode()

#: reply bytes the client-side ``test_wire_*`` examples pin, and one
#: this battery found
REPLIES = [
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n%s" % (len(_STATS_BODY), _STATS_BODY),
    b"HTTP/1.1 404 Not Found\r\nContent-Length: 16\r\n\r\n"
    b'{"found": false}',
    b"HTTP/1.1 400 Bad Request\r\nContent-Length: 12\r\nConnection: close\r\n"
    b'\r\n{"error": 1}',
    b"HTTP/1.1 200 OK\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
    b"HTCPCP/1.0 418 I'm a teapot\r\nContent-Length: 2\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\n" + b"X-h: v\r\n" * 101 + b"Content-Length: 2\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nX-h: " + b"v" * 70000 + b"\r\nContent-Length: 2\r\n\r\n{}",
    # found by this battery: a body that is not UTF-8 escaped untyped
    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n\x80}",
]

#: fragments a mutation splices in: framing, limits, and bytes that
#: look like digits or whitespace to ``str`` but not to HTTP
TOKENS = [
    b"\r\n", b"\n", b"\r", b":", b" ", b"\t", b",", b"\x00", b"\xff",
    b"\xb2", b"\xa0", b"\r\n\r\n", b"HTTP/1.1", b"HTTP/2.0",
    b"Content-Length: ", b"content-length:0\r\n", b"Content-Length: -1\r\n",
    b"Content-Length: 1" + b"0" * 5000 + b"\r\n", b"Transfer-Encoding: x\r\n",
    b"Connection: close\r\n", b"Expect: 100-continue\r\n", b"%2F..%2F",
    b"//", b"?q", b"9" * 20, b"0" * 30 + b"7",
]


@st.composite
def mutants(draw, corpus):
    """A seed from ``corpus`` with up to four overwritten bytes,
    splices, deletions, repeats or truncations."""
    raw = bytearray(draw(st.sampled_from(corpus)))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(raw)))
        how = draw(st.sampled_from(["overwrite", "insert", "delete", "repeat", "cut"]))
        if how == "overwrite":  # keeps every length the head declares
            raw[at : at + 1] = draw(st.binary(min_size=1, max_size=1))
        elif how == "insert":
            raw[at:at] = draw(st.sampled_from(TOKENS) | st.binary(max_size=6))
        elif how == "delete":
            del raw[at : at + draw(st.integers(1, 40))]
        elif how == "repeat":
            raw[at:at] = raw[at : at + draw(st.integers(1, 80))] * draw(
                st.integers(1, 3)
            )
        else:
            del raw[at:]
    return bytes(raw)


@st.composite
def heads(draw):
    """A head built from parts: any start line, then header lines that
    are mostly ``name: value``."""
    word = st.binary(min_size=0, max_size=12)
    start = b" ".join(draw(st.lists(word, min_size=0, max_size=4)))
    line = st.one_of(
        st.tuples(word, word).map(lambda nv: nv[0] + b": " + nv[1]),
        st.sampled_from(TOKENS),
        st.binary(max_size=20),
    )
    lines = draw(st.lists(line, max_size=8))
    return b"\r\n".join([start, *lines, b"", b""]) + draw(st.binary(max_size=20))


hostile_requests = mutants(REQUESTS) | heads() | st.binary(max_size=300)
hostile_replies = mutants(REPLIES) | heads() | st.binary(max_size=300)

BUDGET = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# the reader and the length rule, directly
# ----------------------------------------------------------------------
@settings(max_examples=400, **BUDGET)
@given(raw=hostile_requests | hostile_replies)
def test_wire_battery_reader_ends_in_a_head_or_a_wire_error(raw):
    stream = io.BytesIO(raw)
    try:
        head = read_head(stream.readline)
    except WireError as refusal:
        assert refusal.status in (400, 414, 431) and refusal.payload["error"]
        return
    if head is None:
        return
    start, headers = head
    assert isinstance(start, str) and "\n" not in start
    assert all(name == name.lower().strip() for name in headers)
    for required in (False, True):
        try:
            length = body_length(headers, required=required)
        except WireError as refusal:
            assert refusal.status in (400, 413, 501)
        else:
            assert 0 <= length <= MAX_BODY


# ----------------------------------------------------------------------
# a live server
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def live():
    server = CellServer().start()
    raised = []
    server._httpd.handle_error = lambda request, address: raised.append(address)
    yield server, raised
    server.stop()


def _exchange(server, raw):
    """Send ``raw`` on a fresh connection, close our half, and read
    until the server closes its own: every byte it sent."""
    with socket.create_connection((server.host, server.port), timeout=BOUND) as sock:
        try:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # it refused and closed before reading it all
        chunks = []
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # it closed with our bytes unread: allowed after a refusal
    return b"".join(chunks)


def _replies(received):
    """The statuses of the replies in ``received``, each held to the one
    format (an interim ``100 Continue`` is a bare status line)."""
    stream = io.BytesIO(received)
    replies = []
    while stream.tell() < len(received):
        head = read_head(stream.readline)
        assert head is not None, received
        start, headers = head
        version, status, _ = start.split(" ", 2)
        assert version == "HTTP/1.1"
        if status == "100":
            assert headers == {}
            replies.append(100)
            continue
        assert headers["content-type"] == "application/json"
        doc = json.loads(stream.read(body_length(headers, required=True)))
        assert isinstance(doc, dict)
        assert int(status) < 400 or int(status) == 404 or doc["error"]
        replies.append(int(status))
    return replies


@settings(max_examples=150, **BUDGET)
@given(raw=hostile_requests)
def test_wire_battery_server_answers_in_one_format_and_keeps_serving(live, raw):
    server, raised = live
    began = time.perf_counter()
    received = _exchange(server, raw)
    assert time.perf_counter() - began < BOUND
    _replies(received)
    assert _replies(_exchange(server, _STATS)) == [200]
    assert raised == []  # no handler thread ended in an exception


# ----------------------------------------------------------------------
# the client, against a server that answers with the hostile bytes
# ----------------------------------------------------------------------
def _one_shot_server(reply):
    """A listener that answers the client's ``/stats`` probe well and
    its next request with ``reply``, then closes the connection and
    stops listening.  Returns ``(url, thread)``."""
    listener = socket.create_server(("127.0.0.1", 0))
    url = f"127.0.0.1:{listener.getsockname()[1]}"
    good = REPLIES[0]

    def serve():
        try:
            conn, _ = listener.accept()
        finally:
            listener.close()
        with conn:
            requests = conn.makefile("rb")
            for answer in (good, reply):
                for line in iter(requests.readline, b"\r\n"):
                    if not line:
                        return
                try:
                    conn.sendall(answer)
                except OSError:
                    return  # the client hung up mid-reply

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return url, thread


@settings(max_examples=100, **BUDGET)
@given(reply=hostile_replies)
def test_wire_battery_client_ends_in_a_reply_or_a_typed_refusal(reply):
    url, thread = _one_shot_server(reply)
    backend = ServiceBackend(url, timeout=BOUND)
    began = time.perf_counter()
    try:
        status, text = backend._request("GET", "/v3/stats")
    except BackendUnavailableError:
        assert backend._sock is None  # nothing half-read is kept
    else:
        assert isinstance(status, int) and isinstance(text, str)
    finally:
        backend.close()
        thread.join(BOUND)
    assert time.perf_counter() - began < BOUND
    assert not thread.is_alive()


# ----------------------------------------------------------------------
# the TCP runtime's canon frames
# ----------------------------------------------------------------------
def _read_frames(raw: bytes, kinds):
    """Every frame ``tcp._read_frame`` reads from ``raw`` up to the end
    of the stream, or its refusal."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        frames = []
        while (frame := await tcp._read_frame(reader, kinds)) is not None:
            frames.append(frame)
        return frames

    return asyncio.run(go())


def _sent(algorithm: str, n: int = 5) -> list:
    """``(src, dst, message)`` for every send of a one-request burst."""
    engine = Engine(
        Scenario(algorithm=algorithm, n_nodes=n, arrivals=BurstArrivals(1), seed=0)
    )
    sent = []
    engine.network.add_tap(lambda src, dst, msg, at: sent.append((src, dst, msg)))
    engine.run()
    return sent


@pytest.mark.parametrize("algorithm", algorithm_names())
def test_wire_every_message_of_every_algorithm_round_trips(algorithm):
    kinds = message_kinds(get_algorithm(algorithm))
    sent = _sent(algorithm)
    assert sent
    frames = _read_frames(b"".join(tcp._encode(*frame) for frame in sent), kinds)
    assert len(frames) == len(sent)
    for (src, dst, msg), back in zip(sent, frames):
        assert back[:2] == (src, dst) and type(back[2]) is type(msg)
        assert fingerprint_message(back[2]) == fingerprint_message(msg)


RCV_KINDS = message_kinds(get_algorithm("rcv"))


def _framed(payload: bytes, version: int = tcp.WIRE_VERSION) -> bytes:
    return tcp._HEADER.pack(version, len(payload)) + payload


#: well-formed frames (RCV's, which carry a SystemInfo), then frames no
#: peer would send: oversize, another version, a value of every
#: container row instead of a message, nested past the canon's bound
#: and past the JSON parser's, a kind of another algorithm
FRAMES = [tcp._encode(*frame) for frame in _sent("rcv", 4)[:6]] + [
    tcp._HEADER.pack(tcp.WIRE_VERSION, 1 << 31),
    _framed(b"[]", version=7),
    tcp._encode(0, 1, None),
    tcp._encode(0, 1, ([1, 2.5], {"k": ("x", None)}, frozenset({3}), {True})),
    *[_framed(b'["t",' * deep + b'["none"]' + b"]" * deep) for deep in (600, 1200)],
    _framed(b"[" * 20_000 + b"]" * 20_000),
    _framed(b'["t",["i",0],["i",1],["m","TOKEN",["queue",["l"]]]]'),
]

#: JSON values a mutation splices into an array of a frame: the
#: canon's own tags, unhashable and mistyped heads, and scalars the
#: decoder must refuse or bound — the result is still JSON, so it
#: reaches the canon's decoder rather than the JSON parser's refusal
FRAME_VALUES = [
    b'"m"', b'"nt"', b'"si"', b'"set"', b'"d"', b'"e"', b'"dc"', b'"none"',
    b'"ReqTuple"', b'"RM"', b'"TOKEN"', b"[]", b"[[]]", b"{}", b'["i",true]',
    b'["m","RM"]', b'["nt","ReqTuple",["i",1]]', b'["set",["l"]]',
    b'["d",[["l"],["i",1]]]', b'["si",[],[[]],[1],[1]]', b"NaN", b"1e999",
    b"9" * 5000, b'"\\ud800"', b"null", b"true", b"-0.0",
]


#: how a frame is mutated; a spliced value most often, since it keeps
#: the payload JSON
MUTATIONS = ["flip", "value", "value", "value", "insert", "delete", "repeat", "cut"]


@st.composite
def hostile_frames(draw):
    """A frame from :data:`FRAMES` with flipped bits, a JSON value
    spliced in as an array's head or item, raw bytes spliced anywhere,
    deletions, repeats or a truncation; the header keeps or loses its
    length as the mutation falls."""
    raw = bytearray(draw(st.sampled_from(FRAMES)))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, max(len(raw) - 1, 0)))
        how = draw(st.sampled_from(MUTATIONS))
        if how == "flip" and raw:
            raw[at] ^= 1 << draw(st.integers(0, 7))
        elif how == "value":
            # after an opening bracket or a comma: an array's head or
            # one of its items
            anchors = [i for i, byte in enumerate(raw) if byte in b"[,"]
            if anchors:
                at = draw(st.sampled_from(anchors)) + 1
                raw[at:at] = draw(st.sampled_from(FRAME_VALUES)) + b","
        elif how == "insert":
            raw[at:at] = draw(st.sampled_from(FRAME_VALUES) | st.binary(max_size=6))
        elif how == "delete":
            del raw[at : at + draw(st.integers(1, 40))]
        elif how == "repeat":
            raw[at:at] = raw[at : at + draw(st.integers(1, 80))] * draw(
                st.integers(1, 3)
            )
        else:
            del raw[at:]
    if draw(st.integers(0, 2)) and len(raw) >= tcp._HEADER.size:
        # re-frame the mutated payload, so it reaches the decoder whole
        body = bytes(raw[tcp._HEADER.size :])
        raw[:] = tcp._HEADER.pack(tcp.WIRE_VERSION, len(body)) + body
    return bytes(raw)


@settings(max_examples=300, **BUDGET)
@given(raw=hostile_frames())
def test_wire_frames_end_in_messages_or_a_typed_refusal(raw):
    began = time.perf_counter()
    try:
        frames = _read_frames(raw, RCV_KINDS)
    except tcp._BadFrame as refusal:
        assert str(refusal)
    else:
        for src, dst, message in frames:
            assert type(src) is int and type(dst) is int
            assert type(message) in RCV_KINDS.values()
            fingerprint_message(message)
    assert time.perf_counter() - began < BOUND


#: one canon value of each type a message field holds; swapped for a
#: field of another type, each is one of the wrong type
FIELD_VALUES = [
    ["i", 5], ["b", True], ["f", 1.5], ["s", "x"], ["none"], ["l", ["i", 1]],
    ["t", ["i", 1]], ["nt", "ReqTuple", ["i", 0], ["i", 1]],
    ["si", [], [[], []], [0, 0], [0, 0]],
]

#: (kinds, src, dst, message) for each (algorithm, kind) with a field
_WITH_FIELDS = list(
    {
        (algorithm, msg.kind): (message_kinds(get_algorithm(algorithm)), src, dst, msg)
        for algorithm in algorithm_names()
        for src, dst, msg in _sent(algorithm)
        if payload_fields(type(msg))
    }.values()
)


@settings(max_examples=150, **BUDGET)
@given(data=st.data())
def test_wire_a_field_of_the_wrong_type_is_a_typed_refusal(data):
    """A frame well framed and well formed but for one field of the
    wrong type — a peer's bug, or not our peer — is refused by the
    decoder, naming the kind and the field, before the node sees it."""
    kinds, src, dst, message = data.draw(st.sampled_from(_WITH_FIELDS))
    tree = json.loads(dumps((src, dst, message)))
    field = data.draw(st.sampled_from(tree[3][2:]))
    field[1] = data.draw(st.sampled_from([v for v in FIELD_VALUES if v[0] != field[1][0]]))
    frame = _framed(json.dumps(tree).encode())
    with pytest.raises(tcp._BadFrame, match=f"a {message.kind}'s {field[0]} must be"):
        _read_frames(frame, kinds)
