"""HTTP cell service edge cases (wire level) and monitoring CLI.

The generic backend contract — storage, claim/release/renew with ttl
expiry (including renewal racing expiry), failure/quarantine — runs
against the live service via the ``http`` kind in
``tests/test_backends.py`` / ``tests/test_campaign_parity.py``.  This
file pins what only the *wire* can get wrong: the versioned protocol
gate, response shapes (``/stats`` in particular — the monitoring
contract), server-side arbitration between independent clients, the
typed unavailability error, and the send pattern of a reply (one
write, ``TCP_NODELAY`` — or every round trip waits out a delayed ACK).
"""

import http.client
import inspect
import json
import socket
import statistics
import time
import types

import pytest

from repro.experiments.backends import (
    BackendUnavailableError,
    DirectoryBackend,
    ServiceBackend,
)
from repro.experiments.protocol import ENDPOINTS, match, path_for
from repro.experiments.service import (
    API_PREFIX,
    PROTOCOL_VERSION,
    CellServer,
    _ServiceState,
)


@pytest.fixture
def server():
    srv = CellServer().start()
    yield srv
    srv.stop()


@pytest.fixture
def backend(server):
    b = ServiceBackend(server.url)
    yield b
    b.close()


def _raw(server, method, path, body=None):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


# ----------------------------------------------------------------------
# protocol version gate
# ----------------------------------------------------------------------
def test_protocol_version_mismatch_is_rejected_loudly(server):
    for path in ("/v2/stats", "/v0/cells", "/stats", "/"):
        status, doc = _raw(server, "GET", path)
        assert status == 400, path
        assert f"speaks v{PROTOCOL_VERSION}" in doc["error"]
        assert doc["protocol"] == PROTOCOL_VERSION
    # ...and the gate guards mutations too, before any state changes
    status, doc = _raw(
        server, "POST", "/v2/claim", {"key": "k", "owner": "w", "ttl": 60}
    )
    assert status == 400
    assert "unsupported protocol version" in doc["error"]
    assert server.state.leases == {}


def test_current_version_paths_are_served(server):
    status, doc = _raw(server, "GET", f"{API_PREFIX}/stats")
    assert status == 200
    assert doc["protocol"] == PROTOCOL_VERSION


# ----------------------------------------------------------------------
# response shapes
# ----------------------------------------------------------------------
def test_stats_shape_is_pinned(server, backend):
    """The monitoring contract: campaign-status and any dashboard a
    user scripts against /v1/stats depend on exactly these keys."""
    backend.put("cell-1", "{}")
    assert backend.claim("cell-2", "worker-a", ttl=60.0)
    backend.record_failure("cell-3", "worker-a", "boom")
    backend.quarantine("cell-3")

    stats = backend.stats()
    assert sorted(stats) == [
        "cells",
        "leases",
        "owners",
        "protocol",
        "quarantined",
        "requests",
        "uptime_seconds",
    ]
    assert stats["protocol"] == PROTOCOL_VERSION
    assert stats["cells"] == 1
    [lease] = stats["leases"]
    assert sorted(lease) == ["expires_in", "key", "owner"]
    assert lease["key"] == "cell-2"
    assert lease["owner"] == "worker-a"
    assert 0 < lease["expires_in"] <= 60.0
    worker = stats["owners"]["worker-a"]
    assert sorted(worker) == [
        "active_leases",
        "claims",
        "commits",
        "failures",
        "last_seen_seconds_ago",
        "releases",
        "renews",
    ]
    assert worker["claims"] == 1 and worker["failures"] == 1
    assert worker["active_leases"] == 1
    assert stats["quarantined"] == {"cell-3": {"count": 1}}
    # every request answered before this one, the constructor's
    # reachability probe included
    assert stats["requests"] == {
        "GET stats": 1,
        "POST claim": 1,
        "POST fail": 1,
        "POST quarantine": 1,
        "PUT cells": 1,
    }


def test_requests_outside_the_protocol_are_counted_together(server):
    """The ``requests`` map is keyed by the endpoint the dispatch
    matched: a wrong version, an unknown path and a refused body all
    land in one bucket, so a stray client cannot grow the map."""
    for path in ("/v2/stats", f"{API_PREFIX}/nope", f"{API_PREFIX}/{'x' * 40}"):
        _raw(server, "GET", path)
    _raw(server, "POST", f"{API_PREFIX}/claim", {"key": "k"})  # 400: no owner
    _raw(server, "GET", f"{API_PREFIX}/stats")
    status, stats = _raw(server, "GET", f"{API_PREFIX}/stats")
    assert stats["requests"] == {"GET stats": 1, "other": 4}


def test_expired_leases_drop_out_of_stats(server, backend):
    assert backend.claim("k", "w", ttl=0.05)
    time.sleep(0.06)
    stats = backend.stats()
    assert stats["leases"] == []
    assert stats["owners"]["w"]["active_leases"] == 0


def test_claim_response_carries_the_quarantine_flag(server, backend):
    """Wire-level: a claim refused by quarantine says so, which is
    what lets a client distinguish 'leased by a live peer, poll
    again' from 'poisoned, give up'."""
    status, doc = _raw(
        server,
        "POST",
        f"{API_PREFIX}/claim",
        {"key": "k", "owner": "w", "ttl": 60},
    )
    assert (doc["granted"], doc["quarantined"]) == (True, False)
    backend.quarantine("other")
    status, doc = _raw(
        server,
        "POST",
        f"{API_PREFIX}/claim",
        {"key": "other", "owner": "w", "ttl": 60},
    )
    assert (doc["granted"], doc["quarantined"]) == (False, True)


def test_malformed_requests_get_400_not_500(server):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request("POST", f"{API_PREFIX}/claim", body=b"{not json")
        assert conn.getresponse().status == 400
    finally:
        conn.close()
    # missing fields
    status, doc = _raw(server, "POST", f"{API_PREFIX}/claim", {"key": "k"})
    assert status == 400 and "malformed" in doc["error"]
    # non-object body
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request("POST", f"{API_PREFIX}/claim", body=b'"a string"')
        assert conn.getresponse().status == 400
    finally:
        conn.close()


@pytest.mark.parametrize(
    "content_length, status, wanted",
    [
        ("abc", 400, "not a non-negative integer"),
        ("-1", 400, "not a non-negative integer"),
        ("99999999999", 413, "exceeds"),
    ],
)
def test_untrustworthy_content_length_is_refused(
    server, content_length, status, wanted
):
    """Content-Length is bytes off a socket: a non-number used to kill
    the handler thread with no reply, -1 blocked it until the peer
    hung up, and a huge value raised MemoryError.  Each now gets a
    JSON error reply and a closed connection — without waiting for a
    body that will never come."""
    import socket

    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(
            f"POST {API_PREFIX}/claim HTTP/1.1\r\n"
            f"Host: {server.host}\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode("ascii")
        )
        chunks = []
        while True:  # the server closes the connection after replying
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {status} ".encode("ascii")), head
    assert b"connection: close" in head.lower()
    assert wanted in json.loads(body.decode("utf-8"))["error"]
    # ...and the server is still serving.
    assert _raw(server, "GET", f"{API_PREFIX}/stats")[0] == 200


def test_unknown_endpoints_get_404(server):
    status, doc = _raw(server, "GET", f"{API_PREFIX}/nope")
    assert status == 404 and "no such endpoint" in doc["error"]
    status, doc = _raw(server, "POST", f"{API_PREFIX}/cells", {})
    assert status == 404


# ----------------------------------------------------------------------
# the send pattern: one write per reply, Nagle off, prompt shutdown
# ----------------------------------------------------------------------
@pytest.fixture
def wire(monkeypatch):
    """What the handlers put on their sockets: every ``wfile.write``
    payload, and each accepted connection's ``TCP_NODELAY`` flag."""
    from repro.experiments import service

    seen = types.SimpleNamespace(writes=[], nodelay=[])
    setup = service._Handler.setup

    def recording_setup(handler):
        setup(handler)
        seen.nodelay.append(
            handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        write = handler.wfile.write

        def recording_write(data):
            seen.writes.append(bytes(data))
            return write(data)

        handler.wfile.write = recording_write

    monkeypatch.setattr(service._Handler, "setup", recording_setup)
    return seen


def test_each_reply_is_one_socket_write_on_a_nodelay_connection(server, wire):
    """Head and body in two writes cost a delayed ACK (40 ms) per
    round trip — that was 44 ms of every 44.3 ms request.  Holds for
    the success path, a miss and a refusal alike."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        for method, path, body, status in (
            ("GET", f"{API_PREFIX}/stats", None, 200),
            ("GET", f"{API_PREFIX}/cells/absent", None, 404),
            ("POST", f"{API_PREFIX}/claim", b"{not json", 400),
        ):
            before = len(wire.writes)
            conn.request(method, path, body=body)
            response = conn.getresponse()
            payload = response.read()
            assert response.status == status
            assert len(wire.writes) == before + 1, (method, path)
            sent = wire.writes[-1]
            assert sent.startswith(f"HTTP/1.1 {status} ".encode("ascii"))
            assert payload and sent.endswith(b"\r\n\r\n" + payload)
    finally:
        conn.close()
    assert len(wire.nodelay) == 1 and wire.nodelay[0]  # one keep-alive connection


def test_keepalive_claim_round_trip_is_under_10_ms(server, backend):
    """The loopback floor: 44 ms a round trip with the stall, 0.3 ms
    without — 10 ms fails the first and passes the second by 30x."""
    trips = []
    for i in range(20):
        start = time.perf_counter()
        assert backend.claim(f"cell-{i}", "worker-a", ttl=60.0)
        trips.append(time.perf_counter() - start)
    assert statistics.median(trips) < 0.010, sorted(trips)


def test_stop_does_not_wait_out_a_poll_interval(backend, server):
    """``serve_forever`` polls every 0.5 s and ``shutdown()`` waits
    for the next poll; the accept loop here is woken instead — with a
    keep-alive client still connected."""
    thread = server._thread
    start = time.perf_counter()
    server.stop()
    assert time.perf_counter() - start < 0.25
    assert not thread.is_alive()
    server.stop()  # idempotent (the fixture stops it again)


# ----------------------------------------------------------------------
# shared-nothing: independent clients, one arbiter
# ----------------------------------------------------------------------
def test_two_clients_share_cells_leases_and_quarantine(server):
    a = ServiceBackend(server.url)
    b = ServiceBackend(server.url)
    try:
        a.put("cell", "payload")
        assert b.get("cell") == "payload"
        assert a.claim("lease", "worker-a", ttl=60.0)
        assert not b.claim("lease", "worker-b", ttl=60.0)
        a.quarantine("poisoned")
        assert b.is_quarantined("poisoned")
    finally:
        a.close()
        b.close()


def test_durable_store_survives_server_restart(tmp_path):
    """Leases/quarantine are deliberately per-server-lifetime, but
    cells in a dir/sqlite store must survive a restart."""
    from repro.experiments.backends import DirectoryBackend

    first = CellServer(DirectoryBackend(tmp_path / "cells")).start()
    client = ServiceBackend(first.url)
    client.put("cell", "payload")
    assert client.claim("cell", "worker-a", ttl=3600.0)
    client.quarantine("poisoned")
    client.close()
    first.stop()

    second = CellServer(DirectoryBackend(tmp_path / "cells")).start()
    try:
        client = ServiceBackend(second.url)
        assert client.get("cell") == "payload"  # cells: durable
        assert client.claim("cell", "worker-b", ttl=60.0)  # leases: reset
        assert not client.is_quarantined("poisoned")  # quarantine: reset
        client.close()
    finally:
        second.stop()


# ----------------------------------------------------------------------
# unavailability: typed, named, with a remedy
# ----------------------------------------------------------------------
def test_dead_server_raises_backend_unavailable():
    server = CellServer().start()
    url = server.url
    backend = ServiceBackend(url)
    server.stop()
    backend.close()  # force the next request onto a fresh connection
    with pytest.raises(BackendUnavailableError) as excinfo:
        backend.get("cell")
    message = str(excinfo.value)
    assert url in message
    assert "cell-server" in message  # the remedy names the command


def test_constructor_fails_fast_on_unreachable_server():
    server = CellServer().start()
    url = server.url
    server.stop()
    with pytest.raises(BackendUnavailableError, match="unreachable"):
        ServiceBackend(url)


def test_rejects_non_http_urls():
    with pytest.raises(ValueError, match="only http"):
        ServiceBackend("https://example.com:1234")


# ----------------------------------------------------------------------
# CLI: campaign-status and the store spec
# ----------------------------------------------------------------------
def test_campaign_status_renders_workers_and_quarantine(server, capsys):
    from repro.cli import main

    backend = ServiceBackend(server.url)
    assert backend.claim("cell-a", "worker-a", ttl=60.0)
    backend.put("cell-a", "{}")
    backend.record_failure("cell-b", "worker-a", "boom")
    backend.quarantine("cell-b")
    backend.close()

    assert main(["campaign-status", "--server", server.url]) == 0
    out = capsys.readouterr().out
    assert f"cell-server {server.url}" in out
    assert "cells stored : 1" in out
    # 4 calls above + 2 reachability probes (not this status request)
    assert "requests     : 6 (6.0 per committed cell)" in out
    assert "worker-a" in out
    assert "quarantined cells" in out

    assert main(["campaign-status", "--server", server.url, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["protocol"] == PROTOCOL_VERSION


def test_campaign_status_names_remedy_when_server_is_down():
    from repro.cli import main

    server = CellServer().start()
    url = server.url
    server.stop()
    with pytest.raises(SystemExit, match="cell-server"):
        main(["campaign-status", "--server", url])


def test_store_spec_parsing(tmp_path):
    from repro.cli import _parse_store
    from repro.experiments.backends import (
        DirectoryBackend,
        MemoryBackend,
        SQLiteBackend,
    )

    assert isinstance(_parse_store("memory"), MemoryBackend)
    assert isinstance(
        _parse_store(f"dir:{tmp_path / 'cells'}"), DirectoryBackend
    )
    sqlite_store = _parse_store(f"sqlite:{tmp_path / 'cells.sqlite'}")
    assert isinstance(sqlite_store, SQLiteBackend)
    sqlite_store.close()
    with pytest.raises(SystemExit, match="malformed"):
        _parse_store("dir")
    with pytest.raises(SystemExit, match="unknown --store kind"):
        _parse_store("redis:host")


def test_campaign_cli_requires_server_for_http_backend(tmp_path):
    from repro.cli import main

    with pytest.raises(SystemExit, match="--server"):
        main(
            ["campaign", "--backend", "http", "--out", str(tmp_path / "out")]
        )


def test_duplicate_failure_reports_are_not_double_counted(server, backend):
    """/v1/fail is retried by the client when a response is lost; the
    echoed request id must keep one real crash from spending two
    units of the quarantine budget."""
    status, doc = _raw(
        server,
        "POST",
        f"{API_PREFIX}/fail",
        {"key": "k", "owner": "w", "error": "boom", "id": "aaaa"},
    )
    assert doc["count"] == 1
    # the retry of the same report (same id)
    status, doc = _raw(
        server,
        "POST",
        f"{API_PREFIX}/fail",
        {"key": "k", "owner": "w", "error": "boom", "id": "aaaa"},
    )
    assert doc["count"] == 1
    # a genuinely new crash still counts
    status, doc = _raw(
        server,
        "POST",
        f"{API_PREFIX}/fail",
        {"key": "k", "owner": "w", "error": "boom", "id": "bbbb"},
    )
    assert doc["count"] == 2
    assert server.state.owners["w"]["failures"] == 2


def test_client_failure_reports_carry_unique_ids(server, backend):
    assert backend.record_failure("k", "w", "boom") == 1
    assert backend.record_failure("k", "w", "boom") == 2  # distinct ids
    ids = {r["id"] for r in backend.failures("k")}
    assert len(ids) == 2 and all(ids)


def test_is_quarantined_reuses_the_claim_response(server, backend):
    """After a refused claim the steal loop asks is_quarantined; the
    answer rides on the claim response instead of a second GET."""
    backend.quarantine("poisoned")
    requests_before = server.state.owners  # warm-up
    assert not backend.claim("poisoned", "w", ttl=60.0)
    # Kill the server: if is_quarantined needed a round trip now, it
    # would raise BackendUnavailableError; the cached claim flag
    # answers locally.
    server.stop()
    assert backend.is_quarantined("poisoned") is True


def test_campaign_cli_rejects_malformed_server_url(tmp_path):
    from repro.cli import main

    with pytest.raises(SystemExit, match="only http"):
        main(
            [
                "campaign",
                "--backend",
                "http",
                "--server",
                "https://cache:8400",
                "--out",
                str(tmp_path / "out"),
            ]
        )


def test_lease_arbitration_survives_wall_clock_jumps(monkeypatch):
    # Regression: leases used to expire against time.time(); an NTP
    # step (or suspended host) then expired or immortalized every
    # lease at once.  Arbitration must run on the monotonic clock.
    import time

    from repro.experiments.backends import MemoryBackend
    from repro.experiments.service import _ServiceState

    state = _ServiceState(MemoryBackend())
    assert state.claim("k", "alice", ttl=30.0)["granted"]
    monkeypatch.setattr(time, "time", lambda: 4e12)  # jump far forward
    assert not state.claim("k", "bob", ttl=30.0)["granted"]
    assert state.renew("k", "alice", ttl=30.0)["renewed"]
    stats = state.stats()
    assert [lease["key"] for lease in stats["leases"]] == ["k"]
    assert stats["uptime_seconds"] < 1e6


def test_wire_replies_use_deterministic_key_order(server):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
    try:
        conn.request("GET", f"{API_PREFIX}/stats")
        body = conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()
    doc = json.loads(body)
    assert body == json.dumps(doc, sort_keys=True)


# ----------------------------------------------------------------------
# the wire-protocol guard: every row of the endpoint table, over a real
# socket (what the deleted ``wire-protocol`` lint rule inferred from
# string literals, checked on the bytes instead)
# ----------------------------------------------------------------------
#: one valid value per field any endpoint takes
_SAMPLE = {
    "key": "cell-1",
    "owner": "worker-a",
    "ttl": 60.0,
    "value": "{}",
    "error": "boom",
    "id": "f00d5a1e",
}


def _sample_body(name):
    return {field: _SAMPLE[field] for field in ENDPOINTS[name].fields} or None


def _served_status(name):
    return 404 if name == "get" else 200  # the sample cell was never put


@pytest.mark.parametrize("name", ENDPOINTS)
def test_wire_every_endpoint_round_trips_in_sorted_bytes(
    server, backend, monkeypatch, name
):
    """Client -> server -> client through the table: the request the
    client spells is the one the server matches, and the reply's raw
    bytes are key-sorted JSON (replay comparison of recorded traffic
    depends on it)."""
    state = server.state  # something in every table a reply can show
    state.put("cell-2", "{}")
    state.claim("cell-2", "worker-b", 60.0)
    state.record_failure("cell-3", "worker-b", "boom")
    state.quarantine("cell-3")
    exchanges = []
    request = backend._request

    def recording_request(method, path, body=None):
        status, text = request(method, path, body)
        exchanges.append((method, path, text))
        return status, text

    monkeypatch.setattr(backend, "_request", recording_request)
    op = ENDPOINTS[name]
    fields = {f: _SAMPLE[f] for f in op.fields if f != "key"}
    answered = state.requests.copy()
    status, doc = backend._call(name, _SAMPLE["key"], **fields)

    [(method, path, text)] = exchanges
    assert (method, path) == (op.method, path_for(name, _SAMPLE["key"]))
    assert match(method, path)[0] is op
    assert status == _served_status(name)
    assert text == json.dumps(json.loads(text), sort_keys=True)
    assert doc == json.loads(text) and "error" not in doc
    assert state.requests - answered == {f"{op.method} {op.resource}": 1}


@pytest.mark.parametrize("name", ENDPOINTS)
def test_wire_version_bump_moves_every_endpoint(server, monkeypatch, name):
    """With the version patched to 2, each operation is served under
    /v2 and refused under /v1 — the real paths, whoever builds them."""
    from repro.experiments import protocol, service

    monkeypatch.setattr(protocol, "PROTOCOL_VERSION", 2)
    monkeypatch.setattr(protocol, "API_PREFIX", "/v2")
    monkeypatch.setattr(service, "PROTOCOL_VERSION", 2)
    op = ENDPOINTS[name]
    bumped = path_for(name, _SAMPLE["key"])
    assert bumped.startswith("/v2/")
    status, doc = _raw(server, op.method, bumped, _sample_body(name))
    assert status == _served_status(name) and "error" not in doc

    stale = "/v1/" + bumped[len("/v2/") :]
    status, doc = _raw(server, op.method, stale, _sample_body(name))
    assert status == 400 and doc["protocol"] == 2
    assert "speaks v2" in doc["error"] and repr(stale) in doc["error"]
    assert server.state.requests["other"] == 1


@pytest.mark.parametrize("name", ENDPOINTS)
def test_wire_every_endpoint_names_a_state_method(name):
    """The dispatch is ``getattr(state, name)(**args)``: a table entry
    without a method taking exactly its arguments cannot ship."""
    op = ENDPOINTS[name]
    params = inspect.signature(getattr(_ServiceState, name)).parameters
    required = {
        p for p, spec in params.items() if spec.default is inspect.Parameter.empty
    }
    takes = set(op.fields) | ({"key"} if op.keyed else set())
    assert set(params) - {"self"} == takes
    assert required - {"self"} == takes - op.optional


@pytest.mark.parametrize(
    "name, field, raw_value",
    [
        ("claim", "key", "3"),  # was granted, then every /stats died sorting
        ("claim", "key", '["a"]'),
        ("claim", "key", '""'),
        ("claim", "key", '"a/b"'),
        ("claim", "key", '"' + "k" * 129 + '"'),
        ("release", "owner", "7"),
        ("release", "owner", '""'),
        ("claim", "ttl", "1e999"),  # was an immortal lease, and Infinity in /stats
        ("renew", "ttl", "NaN"),
        ("claim", "ttl", "-5"),
        ("claim", "ttl", "0"),
        ("claim", "ttl", '"soon"'),
        ("claim", "ttl", "true"),
        ("claim", "ttl", "1" + "0" * 400),
        ("put", "value", "{}"),
        ("put", "value", '""'),
        ("record_failure", "error", "null"),
        ("record_failure", "id", "12"),
        ("quarantine", "key", None),  # missing
        ("claim", "owner", None),
    ],
)
def test_wire_ill_typed_fields_are_refused_by_name(server, name, field, raw_value):
    """A body is bytes off a socket: each field has one converter in
    the table, every refusal is a 400 naming the field, and nothing
    ill-typed reaches the state — so /stats stays servable, and JSON."""
    op = ENDPOINTS[name]
    members = {f: json.dumps(_SAMPLE[f]) for f in op.fields}
    if raw_value is None:
        del members[field]
    else:
        members[field] = raw_value
    body = "{" + ", ".join(f'"{f}": {v}' for f, v in members.items()) + "}"
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request(op.method, path_for(name, _SAMPLE["key"]), body=body.encode())
        response = conn.getresponse()
        doc = json.loads(response.read().decode())
        assert response.status == 400
        assert "malformed" in doc["error"] and repr(field) in doc["error"]
        # same connection: the refusal left it usable, and /stats answers
        conn.request("GET", path_for("stats"))
        response = conn.getresponse()
        stats = json.loads(
            response.read().decode(),
            parse_constant=lambda token: pytest.fail(f"{token} is not JSON"),
        )
    finally:
        conn.close()
    assert response.status == 200
    assert (stats["leases"], stats["owners"], stats["cells"]) == ([], {}, 0)
    assert stats["requests"] == {"other": 1}


@pytest.mark.parametrize("method", ["PUT", "GET"])
def test_wire_cell_key_cannot_escape_a_directory_store(tmp_path, method):
    """``..%2F`` unquotes to a separator: the key converter refuses it
    (400), and nothing is written or read outside the store root."""
    root = tmp_path / "a" / "b" / "c" / "store"
    (tmp_path / "a" / "escaped.json").parent.mkdir(parents=True)
    (tmp_path / "a" / "escaped.json").write_text('"outside"')
    server = CellServer(DirectoryBackend(root)).start()
    try:
        status, doc = _raw(
            server,
            method,
            f"{API_PREFIX}/cells/..%2F..%2F..%2Fescaped",
            {"value": "pwned"} if method == "PUT" else None,
        )
    finally:
        server.stop()
    assert status == 400 and "'key'" in doc["error"]
    assert (tmp_path / "a" / "escaped.json").read_text() == '"outside"'
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["escaped.json"]
