"""HTTP cell service edge cases (wire level) and monitoring CLI.

The generic backend contract — storage, claim/release/renew with ttl
expiry (including renewal racing expiry), failure/quarantine — runs
against the live service via the ``http`` kind in
``tests/test_backends.py`` / ``tests/test_campaign_parity.py``.  This
file pins what only the *wire* can get wrong: the versioned protocol
gate, response shapes (``/stats`` in particular — the monitoring
contract), server-side arbitration between independent clients, the
typed unavailability error, the send pattern of a reply (one
write, ``TCP_NODELAY`` — or every round trip waits out a delayed ACK),
and the HTTP/1.1 both ends spell themselves: heads pinned as the
stdlib wrote them, bodies framed by one ``Content-Length``.
"""

import gc
import http.client
import inspect
import json
import socket
import statistics
import sys
import threading
import time
import types
import warnings

import pytest

from repro.experiments.backends import (
    QUARANTINED,
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
    for path in ("/v1/stats", "/v3/stats", "/v0/cells", "/stats", "/"):
        status, doc = _raw(server, "GET", path)
        assert status == 400, path
        assert f"speaks v{PROTOCOL_VERSION}" in doc["error"]
        assert doc["protocol"] == PROTOCOL_VERSION
    # ...and the gate guards mutations too, before any state changes:
    # a v1 client's claim is refused, never read as a v2 one
    status, doc = _raw(
        server, "POST", "/v1/claim", {"key": "k", "owner": "w", "ttl": 60}
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
    user scripts against /v2/stats depend on exactly these keys."""
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
    for path in ("/v1/stats", f"{API_PREFIX}/nope", f"{API_PREFIX}/{'x' * 40}"):
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
    """Wire-level: a claim's reply names its answer — the lease is
    yours, a live peer holds it (poll again), the cell is poisoned
    (give up), or it is done and the committed text rides along."""

    def claim(key, owner="w"):
        return _raw(
            server,
            "POST",
            f"{API_PREFIX}/claim",
            {"key": key, "owner": owner, "ttl": 60},
        )[1]

    assert claim("k") == {"claim": "yours"}
    assert claim("k", owner="peer") == {"claim": "held"}
    backend.quarantine("other")
    assert claim("other") == {"claim": "quarantined"}
    backend.put("k", "{}")
    assert claim("k", owner="peer") == {"claim": "done", "value": "{}"}
    assert server.state.leases == {}  # the commit ended w's lease


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


@pytest.mark.parametrize(
    "command",
    [
        ["campaign-status"],
        ["campaign", "--backend", "http", "--algorithms", "rcv",
         "--n-values", "3", "--seeds", "1", "--workers", "1", "--no-progress"],
    ],
    ids=["campaign-status", "campaign"],
)
def test_cli_closes_the_backends_it_opens(
    server, command, tmp_path, monkeypatch, capsys
):
    # An unclosed socket warns when the backend is freed; as an error,
    # that warning reaches sys.unraisablehook.
    from repro.cli import main

    if command[0] == "campaign":
        command = command + ["--out", str(tmp_path)]
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert main(command + ["--server", server.url]) == 0
        gc.collect()
    assert [hook.exc_value for hook in unraisable] == []


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
    """/v2/fail is retried by the client when a response is lost; the
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


def test_a_claim_answers_quarantined_in_its_own_reply(server, backend):
    """A stealing worker learns that a cell is poisoned from the claim
    itself: no quarantine query follows it."""
    backend.quarantine("poisoned")
    server.state.requests.clear()
    assert backend.claim("poisoned", "w", ttl=60.0) is QUARANTINED
    assert server.state.requests == {"POST claim": 1}


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
    assert state.claim("k", "alice", ttl=30.0) == {"claim": "yours"}
    monkeypatch.setattr(time, "time", lambda: 4e12)  # jump far forward
    assert state.claim("k", "bob", ttl=30.0) == {"claim": "held"}
    assert state.renew("k", "alice", ttl=30.0)["renewed"]
    stats = state.stats()
    assert [lease["key"] for lease in stats["leases"]] == ["k"]
    assert stats["uptime_seconds"] < 1e6


def test_wire_a_fresh_cell_is_two_round_trips_and_a_resumed_cell_one(
    server, backend
):
    """A cached campaign over the service, counted by the server's
    own ``requests`` map: a fresh cell is one claim and one commit, a
    resumed cell one claim, and a clean run asks for no quarantine
    table, release or read."""
    from repro.experiments.cache import CellCache
    from repro.experiments.campaign import Campaign
    from repro.experiments.parallel import CellSpec

    specs = [CellSpec("rcv", 4, seed, ("burst", 1)) for seed in range(3)]
    campaign = Campaign("served", specs)
    for expected in (
        {"POST claim": 3, "PUT cells": 3},  # fresh
        {"POST claim": 3},  # resumed
    ):
        server.state.requests.clear()
        cache = CellCache(backend=backend)
        result = campaign.run(max_workers=1, cache=cache)
        assert result.complete
        assert backend.stats()["requests"] == expected


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
    """With the version patched one past the current, each operation
    is served under the new prefix and refused under the current one —
    the real paths, whoever builds them."""
    from repro.experiments import protocol, service

    new, old = f"/v{PROTOCOL_VERSION + 1}/", f"/v{PROTOCOL_VERSION}/"
    monkeypatch.setattr(protocol, "PROTOCOL_VERSION", PROTOCOL_VERSION + 1)
    monkeypatch.setattr(protocol, "API_PREFIX", new.rstrip("/"))
    monkeypatch.setattr(service, "PROTOCOL_VERSION", PROTOCOL_VERSION + 1)
    op = ENDPOINTS[name]
    bumped = path_for(name, _SAMPLE["key"])
    assert bumped.startswith(new)
    status, doc = _raw(server, op.method, bumped, _sample_body(name))
    assert status == _served_status(name) and "error" not in doc

    stale = old + bumped[len(new) :]
    status, doc = _raw(server, op.method, stale, _sample_body(name))
    assert status == 400 and doc["protocol"] == PROTOCOL_VERSION + 1
    assert f"speaks v{PROTOCOL_VERSION + 1}" in doc["error"]
    assert repr(stale) in doc["error"]
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


# ----------------------------------------------------------------------
# the wire as any HTTP/1.1 client sees it: heads the server spells
# itself, framed by one Content-Length, and what it does with the rest
# ----------------------------------------------------------------------
def _pinned_server(monkeypatch):
    """A server whose replies are the same bytes on every run: its
    clocks are stopped, and every table a reply can show has a row."""
    from repro.experiments import backends, service

    monkeypatch.setattr(
        service, "time", types.SimpleNamespace(time=lambda: 0.0, monotonic=lambda: 1e3)
    )
    monkeypatch.setattr(backends, "_wall_clock", lambda: 0.0)
    monkeypatch.setattr(backends.MemoryBackend, "_now", staticmethod(lambda: 1e3))
    server = CellServer().start()
    state = server.state
    state.claim("cell-2", "worker-b", 60.0)
    state.put("cell-2", "{}")  # a commit, which ends the lease...
    state.claim("cell-4", "worker-b", 60.0)  # ...so a live one here
    state.record_failure("cell-3", "worker-b", "boom", id="f00d")
    state.quarantine("cell-3")
    state.requests.clear()
    return server


def _stdlib_send(server, method, path, body=None):
    """One request through ``http.client``: ``(status line, header
    names in order, body bytes)``."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return (
            f"HTTP/1.1 {response.status} {response.reason}",
            [header for header, _ in response.getheaders()],
            response.read(),
        )
    finally:
        conn.close()


def _sample_request(name):
    """Endpoint ``name``'s sample request: method, path, body text."""
    body = _sample_body(name)
    return (
        ENDPOINTS[name].method,
        path_for(name, _SAMPLE["key"]),
        json.dumps(body) if body is not None else None,
    )


_HEAD = ["Server", "Date", "Content-Type", "Content-Length"]

#: each endpoint's reply to its sample request on a pinned server, as
#: the stdlib's send_response/send_header/end_headers spelled the head
_PINNED_REPLIES = {
    'stats': (
        'HTTP/1.1 200 OK',
        b'{"cells": 1, "leases": [{"expires_in": 60.0, "key": "cell-4", "owner": "worker-b"}], "owners": {"worker-b": {"active_leases": 1, "claims": 2, "commits": 1, "failures": 1, "last_seen_seconds_ago": 0.0, "releases": 0, "renews": 0}}, "protocol": 2, "quarantined": {"cell-3": {"count": 1}}, "requests": {}, "uptime_seconds": 0.0}',
    ),
    'cells': (
        'HTTP/1.1 200 OK',
        b'{"count": 1, "keys": ["cell-2"]}',
    ),
    'get': (
        'HTTP/1.1 404 Not Found',
        b'{"found": false}',
    ),
    'put': (
        'HTTP/1.1 200 OK',
        b'{"stored": true}',
    ),
    'claim': (
        'HTTP/1.1 200 OK',
        b'{"claim": "yours"}',
    ),
    'renew': (
        'HTTP/1.1 200 OK',
        b'{"renewed": false}',
    ),
    'release': (
        'HTTP/1.1 200 OK',
        b'{"released": false}',
    ),
    'record_failure': (
        'HTTP/1.1 200 OK',
        b'{"count": 1, "quarantined": false}',
    ),
    'quarantine': (
        'HTTP/1.1 200 OK',
        b'{"quarantined": true}',
    ),
    'quarantined': (
        'HTTP/1.1 200 OK',
        b'{"cells": {"cell-3": {"count": 1, "failures": [{"error": "boom", "id": "f00d", "owner": "worker-b", "time": 0.0}]}}}',
    ),
    'quarantine_entry': (
        'HTTP/1.1 200 OK',
        b'{"count": 0, "failures": [], "quarantined": false}',
    ),
}


@pytest.mark.parametrize("name", ENDPOINTS)
def test_wire_replies_keep_their_head_and_bytes_for_any_client(
    monkeypatch, name
):
    """Status line, header names in order and body bytes of every
    endpoint's reply, to stdlib ``http.client`` (standing in for curl)
    and to ``ServiceBackend``, are what they were when the stdlib wrote
    the head (``Date``'s value aside)."""
    status_line, body = _PINNED_REPLIES[name]
    method, path, sent = _sample_request(name)
    server = _pinned_server(monkeypatch)
    try:
        assert _stdlib_send(
            server, method, path, sent and sent.encode()
        ) == (status_line, _HEAD, body)
        backend = ServiceBackend(server.url)
        server.state.requests.clear()  # the constructor's probe
        try:
            reply = backend._request(method, path, sent)
        finally:
            backend.close()
    finally:
        server.stop()
    assert reply == (int(status_line.split()[1]), body.decode("utf-8"))


@pytest.mark.parametrize(
    "method, path, sent, status_line, closes, body",
    [
        (
            "POST", "/v1/claim", b'{"key": "k"}', "HTTP/1.1 400 Bad Request", True,
            b'{"error": "unsupported protocol version for path \'/v1/claim\': '
            b'this server speaks v2 (paths under /v2/). Upgrade the older side '
            b'so client and server agree.", "protocol": 2}',
        ),
        (
            "GET", "/v2/nope", None, "HTTP/1.1 404 Not Found", False,
            b'{"error": "no such endpoint: GET /v2/nope"}',
        ),
        (
            "POST", "/v2/claim", b"{not json", "HTTP/1.1 400 Bad Request", False,
            b'{"error": "request body is not valid JSON"}',
        ),
    ],
)
def test_wire_refusals_keep_their_head_and_bytes(
    monkeypatch, method, path, sent, status_line, closes, body
):
    """The same pin for refusals: a reply sent with the body unread
    still ends its head with ``Connection: close``."""
    server = _pinned_server(monkeypatch)
    try:
        got = _stdlib_send(server, method, path, sent)
    finally:
        server.stop()
    assert got == (status_line, _HEAD + ["Connection"] * closes, body)


def _converse(server, raw, timeout=2.0):
    """Send ``raw`` on one connection, then read until the server closes
    it or ``timeout`` passes with nothing more: every byte it sent."""
    with socket.create_connection((server.host, server.port), timeout=timeout) as sock:
        sock.sendall(raw)
        chunks = []
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except TimeoutError:
            chunks.append(b"<still open>")
    return b"".join(chunks)


_CLAIM = b'{"key": "cell-1", "owner": "w", "ttl": 60}'
_STATS = f"GET {API_PREFIX}/stats HTTP/1.1\r\nHost: h\r\n\r\n".encode()


def _one_closing_reply(received, status):
    head, _, body = received.partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {status} ".encode()), received
    assert b"\r\nConnection: close" in head, received
    assert b"HTTP/1.1" not in body and not body.endswith(b"<still open>"), received
    return json.loads(body)["error"]


def test_wire_chunked_body_is_refused_before_it_is_read(server):
    """A chunked body used to be read as no body (400, connection kept),
    its size line then answered as a request of its own, and the next
    request on the socket never answered.  It is a 501 that closes."""
    chunked = (
        f"POST {API_PREFIX}/claim HTTP/1.1\r\nHost: h\r\n"
        "Transfer-Encoding: chunked\r\n\r\n"
        f"{len(_CLAIM):x}\r\n"
    ).encode() + _CLAIM + b"\r\n0\r\n\r\n"
    error = _one_closing_reply(_converse(server, chunked + _STATS), 501)
    assert "Transfer-Encoding" in error
    assert server.state.leases == {}
    assert _raw(server, "GET", f"{API_PREFIX}/stats")[0] == 200


def test_wire_repeated_content_length_is_refused_before_it_is_read(server):
    """With two lengths the server used to read the first, refuse the
    cut body with the connection kept, and lose the next request in the
    garbage that followed.  A repeated length is a 400 that closes."""
    repeated = (
        f"POST {API_PREFIX}/claim HTTP/1.1\r\nHost: h\r\n"
        f"Content-Length: 5\r\nContent-Length: {len(_CLAIM)}\r\n\r\n"
    ).encode() + _CLAIM
    error = _one_closing_reply(_converse(server, repeated + _STATS), 400)
    assert "Content-Length" in error and "repeated" in error
    assert server.state.leases == {}


def test_wire_expect_100_continue_gets_continue_then_the_reply(server):
    """curl sends ``Expect: 100-continue`` above 1 KB and waits for the
    interim reply before the body."""
    body = json.dumps({"value": json.dumps({"x": "a" * 3000})}).encode()
    path = path_for("put", _SAMPLE["key"])
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(
            f"PUT {path} HTTP/1.1\r\nHost: h\r\nExpect: 100-continue\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            .encode()
        )
        assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        reply = sock.makefile("rb")
        assert reply.readline() == b"HTTP/1.1 200 OK\r\n"
        headers = {}
        for line in iter(reply.readline, b"\r\n"):
            name, _, value = line.decode().partition(":")
            headers[name] = value.strip()
        assert json.loads(reply.read(int(headers["Content-Length"]))) == {"stored": True}
    assert server.state.store.get(_SAMPLE["key"]) == json.dumps({"x": "a" * 3000})


def test_wire_http_1_0_request_gets_its_reply_then_eof(server):
    received = _converse(server, f"GET {API_PREFIX}/stats HTTP/1.0\r\n\r\n".encode())
    head, _, body = received.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK\r\n")
    assert json.loads(body)["protocol"] == PROTOCOL_VERSION  # and then EOF


@pytest.mark.parametrize(
    "version, fields, status",
    [
        ("HTTP/1.1", ["X-h: v"] * 99, 200),  # and Connection: 100 headers
        ("HTTP/1.1", ["X-h: v"] * 100, 431),
        ("HTTP/1.1", ["X-h: " + "v" * 65529], 200),  # 65,536 bytes with CRLF
        ("HTTP/1.1", ["X-h: " + "v" * 65530], 431),
        ("HTTP/2.0", [], 505),
        ("HTTP/1.1", [" folded: v"], 400),
        ("HTTP/1.1", ["no colon"], 400),
    ],
    ids=["100-headers", "101-headers", "long-line", "longer-line", "http2",
         "folded", "no-colon"],
)
def test_wire_request_heads_are_held_to_the_stdlib_limits(
    server, version, fields, status
):
    """At most 100 header lines of at most 65,536 bytes each, in an
    HTTP/1.0 or 1.1 request: anything else is refused."""
    head = "".join(f"{field}\r\n" for field in fields)
    received = _converse(
        server,
        f"GET {API_PREFIX}/stats {version}\r\n{head}Connection: close\r\n\r\n".encode(),
    )
    assert received.startswith(f"HTTP/1.1 {status} ".encode()), received[:200]
    assert not received.endswith(b"<still open>")


@pytest.mark.parametrize(
    "raw, status, wanted",
    [
        # an unsupported method is an endpoint the table does not have
        (f"DELETE {API_PREFIX}/stats HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
         404, "no such endpoint: DELETE"),
        (f"GET {API_PREFIX}/stats HTTP/2.0\r\nHost: h\r\n\r\n", 505, "HTTP/2.0"),
        (f"GET {API_PREFIX}/stats HTTP/1.1\r\nno colon\r\n\r\n", 400, "no colon"),
        (f"GET {API_PREFIX}/stats HTTP/1.1\r\n" + "X-h: v\r\n" * 101 + "\r\n",
         431, "more than 100 header lines"),
        (f"GET {API_PREFIX}/{'x' * 70000} HTTP/1.1\r\nHost: h\r\n\r\n",
         414, "longer than 65536 bytes"),
        # this one used to raise in the handler thread: no reply at all
        (f"GET http://[x{API_PREFIX}/stats HTTP/1.1\r\nConnection: close\r\n\r\n",
         400, "unsupported protocol version"),
    ],
    ids=["delete", "http2", "no-colon", "101-headers", "long-request-line",
         "absolute-url-bad-host"],
)
def test_wire_every_refusal_is_one_json_reply(server, wire, raw, status, wanted):
    """Refusals of a head used to be the stdlib's ``send_error``: an
    HTML page in two writes, the client's bytes in the reason phrase,
    and 501 for a method no table row has.  Every refusal is now what
    a refused field always was: a JSON ``error`` in one write, and the
    connection closed after it."""
    received = _converse(server, raw.encode())
    head, _, body = received.partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {status} ".encode()), received[:200]
    assert b"\r\nContent-Type: application/json\r\n" in head
    assert wanted in json.loads(body)["error"]
    assert wire.writes == [received]  # one write, then the server closed


@pytest.mark.parametrize(
    "reply, problem",
    [
        (b"HTTP/1.1 200 OK\r\n\r\n{}", "Content-Length ''"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
         "Transfer-Encoding"),
        (b"HTCPCP/1.0 418 I'm a teapot\r\nContent-Length: 2\r\n\r\n{}", "status line"),
        (b"HTTP/1.1 200 OK\r\n" + b"X-h: v\r\n" * 101 + b"Content-Length: 2\r\n\r\n{}",
         "more than 100 header lines"),
        (b"HTTP/1.1 200 OK\r\nX-h: " + b"v" * 70000 + b"\r\nContent-Length: 2\r\n\r\n{}",
         "header line"),
    ],
    ids=["no-length", "chunked", "status-line", "101-headers", "long-line"],
)
def test_wire_client_refuses_a_reply_it_cannot_frame_at_once(reply, problem):
    """Against a server that answered without a Content-Length and kept
    the socket open, the client used to wait out two timeouts and then
    report the server unreachable.  It names the framing problem now,
    without waiting."""
    stats = json.dumps({"protocol": PROTOCOL_VERSION}).encode()
    listener = socket.create_server(("127.0.0.1", 0))
    done = threading.Event()

    def serve_one_connection():
        conn, _ = listener.accept()
        with conn:
            requests = conn.makefile("rb")
            for answer in (
                b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(stats), stats),
                reply,
            ):
                for line in iter(requests.readline, b"\r\n"):
                    if not line:
                        return
                try:
                    conn.sendall(answer)
                except OSError:
                    pass  # the client hung up mid-reply: that was the point
            done.wait(10)  # ...and keep the socket open

    thread = threading.Thread(target=serve_one_connection, daemon=True)
    thread.start()
    try:
        backend = ServiceBackend(f"127.0.0.1:{listener.getsockname()[1]}", timeout=2)
        start = time.perf_counter()
        with pytest.raises(BackendUnavailableError) as excinfo:
            backend.get("cell-1")
        assert time.perf_counter() - start < 1.0
    finally:
        done.set()
        thread.join(5)
        listener.close()
    assert problem in str(excinfo.value)
    assert "Content-Length" in str(excinfo.value)
