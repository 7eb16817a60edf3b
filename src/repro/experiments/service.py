"""The HTTP cell service: a shared-nothing campaign backend.

``CellServer`` serves a campaign's cell cache over a **versioned JSON
protocol** (stdlib :class:`http.server.ThreadingHTTPServer` — no new
dependencies), so workers on any number of hosts need nothing in
common but a TCP route to one server: no NFS export, no shared SQLite
file, no coherent filesystem semantics anywhere.  The matching client
is :class:`repro.experiments.backends.ServiceBackend`; the CLI front
ends are ``python -m repro.cli cell-server`` (serve) and
``campaign-status`` (monitor).  The full wire reference with examples
lives in ``docs/operations.md``.

Design decisions worth knowing:

* **Server-side arbitration.**  Leases, failure records, and the
  quarantine table live in server memory behind one lock and one
  clock.  TTL expiry is evaluated against the *server's* clock, so
  worker clock skew cannot corrupt lease arbitration — the one
  problem the filesystem backends cannot solve.  That clock is
  ``time.monotonic()``: an NTP step or a suspended laptop must not
  expire (or immortalize) every lease at once.  Wall time appears
  only in display fields (``started``, failure timestamps).
* **Pluggable cell storage.**  Cell *values* are delegated to any
  :class:`~repro.experiments.backends.CacheBackend` (default
  :class:`~repro.experiments.backends.MemoryBackend`; a directory or
  SQLite store makes the served cache durable across server
  restarts).  Lease/failure/quarantine state is per-server-lifetime:
  restarting the server frees every lease (workers just re-claim) and
  clears quarantine (deliberate — a restart is the documented way to
  re-try quarantined cells after a fix).
* **Versioned protocol, described once.**  Every path is prefixed
  ``/v1``; any other prefix is rejected with HTTP 400 and an error
  naming the version this server speaks, so a client/server mismatch
  fails loudly at the first request instead of corrupting a campaign.
  This module spells none of it: the handler's one dispatch asks
  :mod:`repro.experiments.protocol` which table entry a request
  matches and what its typed fields are, then calls the
  ``_ServiceState`` method of that name — a field of the wrong type
  is a 400 naming it, and never reaches the state.
* **Monitoring built in.**  ``GET /v1/stats`` exposes the live lease
  table and per-owner counters (claims, commits, failures, renews) —
  per-worker throughput for a running campaign without touching the
  workers — and a per-endpoint ``requests`` count, so the scheduler's
  request budget (docs/operations.md, "Lease and TTL tuning") is
  visible on a live campaign.
* **One send per reply.**  ``_reply`` hands status line, headers and
  body to the socket in a single write, and accepted connections set
  ``TCP_NODELAY``.  Written the stdlib way (``end_headers()``, then
  ``wfile.write(body)``: two small sends on an unbuffered socket),
  Nagle on the server holds the body until the client's *delayed* ACK
  of the headers — 40 ms added to every round trip on loopback, 44 ms
  measured against 0.3 ms of actual work.  ``TCP_NODELAY`` covers what
  one write cannot: the stdlib's own ``send_error`` replies, and the
  short tail segment of a cell document larger than one MSS.
* **Prompt shutdown.**  The accept loop blocks until a connection
  arrives rather than polling a flag (``serve_forever`` wakes every
  0.5 s, and ``shutdown()`` waits that out); ``stop()`` sets the flag
  and then connects to the listening socket to wake it.
"""

from __future__ import annotations

import io
import socket
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from repro.experiments.backends import CacheBackend, MemoryBackend
from repro.experiments.protocol import (
    API_PREFIX,
    PROTOCOL_VERSION,
    WireError,
    decode,
    encode,
    match,
    validate,
)

__all__ = ["CellServer", "PROTOCOL_VERSION", "API_PREFIX"]


#: largest request body the server will read — a cell document is a
#: few KB to a few hundred KB; nothing legitimate comes near this
_MAX_BODY_BYTES = 8 * 1024 * 1024

def _owner_record() -> dict:
    return {
        "claims": 0,
        "commits": 0,
        "releases": 0,
        "renews": 0,
        "failures": 0,
        "last_seen": 0.0,
    }


class _ServiceState:
    """Everything the handlers mutate, behind one lock.

    Cell text is delegated to ``store``.  Leases, failures and
    quarantine are in-memory (see module docstring for why that is a
    feature) and arbitrated by a private
    :class:`~repro.experiments.backends.MemoryBackend` — the shared
    lease rules over the memory medium — so the server
    adds only what is its own: per-owner counters, the request-id
    dedupe on ``/fail``, and the ``/stats`` view.
    """

    def __init__(self, store: CacheBackend) -> None:
        self.store = store
        self.arbiter = MemoryBackend()
        #: makes "touch the owner, arbitrate, count" one atomic step
        self.lock = threading.Lock()
        self.owners: Dict[str, dict] = {}
        #: requests answered since start, by ``"<METHOD> <resource>"``
        self.requests: Counter = Counter()
        # wall clock: an ALLOWED row in tests/test_determinism.py
        self.started = time.time()
        self._started_mono = time.monotonic()

    @property
    def leases(self) -> Dict[str, tuple]:
        """The lease table, read-only: ``key -> (owner, monotonic expiry)``."""
        return {
            key: (lease["owner"], lease["expires"])
            for key, lease in self.arbiter.items("leases")
        }

    def _touch(self, owner: str) -> dict:
        record = self.owners.setdefault(owner, _owner_record())
        record["last_seen"] = time.monotonic()
        return record

    # -- leases --------------------------------------------------------
    def claim(self, key: str, owner: str, ttl: float) -> dict:
        with self.lock:
            record = self._touch(owner)
            granted = self.arbiter.claim(key, owner, ttl)
            record["claims"] += granted
            return {
                "granted": granted,
                "quarantined": self.arbiter.is_quarantined(key),
            }

    def release(self, key: str, owner: str) -> dict:
        with self.lock:
            record = self._touch(owner)
            released = self.arbiter.release(key, owner)
            record["releases"] += released
            return {"released": released}

    def renew(self, key: str, owner: str, ttl: float) -> dict:
        with self.lock:
            record = self._touch(owner)
            renewed = self.arbiter.renew(key, owner, ttl)
            record["renews"] += renewed
            return {"renewed": renewed}

    # -- cells ---------------------------------------------------------
    def cells(self) -> dict:
        keys = sorted(self.store.keys())
        return {"keys": keys, "count": len(keys)}

    def get(self, key: str) -> dict:
        value = self.store.get(key)
        return {"found": False} if value is None else {"found": True, "value": value}

    def put(self, key: str, value: str) -> dict:
        # Attribute the commit to the lease holder (the façade's put
        # carries no owner; the lease table knows whose cell this is).
        with self.lock:
            held = self.arbiter.read("leases", key)
            owner = held["owner"] if held is not None else "(unleased)"
            self._touch(owner)["commits"] += 1
        self.store.put(key, value)
        return {"stored": True}

    # -- failures / quarantine -----------------------------------------
    def record_failure(self, key: str, owner: str, error: str, id: str = "") -> dict:
        with self.lock:
            records = self.arbiter.failures(key)
            # Idempotency: a client that lost the *response* retries
            # the report; the echoed id identifies the duplicate so
            # one real crash never spends two units of the
            # quarantine budget.  (Records are capped by the failure
            # budget, so the scan is a handful of entries.)
            duplicate = id and any(r.get("id") == id for r in records)
            record = self._touch(owner)
            count = len(records)
            if not duplicate:
                record["failures"] += 1
                count = self.arbiter.record_failure(key, owner, error, id=id)
            return {
                "count": count,
                "quarantined": self.arbiter.is_quarantined(key),
            }

    def quarantine(self, key: str) -> dict:
        self.arbiter.quarantine(key)
        return {"quarantined": True}

    def quarantined(self) -> dict:
        return {"cells": self.arbiter.quarantined()}

    def quarantine_entry(self, key: str) -> dict:
        entry = self.arbiter.quarantined().get(key)
        failures = self.arbiter.failures(key)
        return {
            "quarantined": entry is not None,
            "count": entry["count"] if entry else len(failures),
            "failures": entry["failures"] if entry else failures,
        }

    # -- monitoring ----------------------------------------------------
    def count_request(self, endpoint: str) -> None:
        with self.lock:
            self.requests[endpoint] += 1

    def stats(self) -> dict:
        now = time.monotonic()
        with self.lock:
            live = {k: held for k, held in self.leases.items() if held[1] > now}
            leases = [
                {
                    "key": key,
                    "owner": owner,
                    "expires_in": round(expires - now, 3),
                }
                for key, (owner, expires) in sorted(live.items())
            ]
            owners = {
                owner: {
                    "claims": rec["claims"],
                    "commits": rec["commits"],
                    "releases": rec["releases"],
                    "renews": rec["renews"],
                    "failures": rec["failures"],
                    "active_leases": sum(
                        1 for holder, _ in live.values() if holder == owner
                    ),
                    "last_seen_seconds_ago": round(
                        now - rec["last_seen"], 3
                    ),
                }
                for owner, rec in sorted(self.owners.items())
            }
            quarantined = {
                key: {"count": entry["count"]}
                for key, entry in sorted(self.arbiter.quarantined().items())
            }
            requests = dict(self.requests)
        return {
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": round(now - self._started_mono, 3),
            "cells": len(self.store),
            "leases": leases,
            "owners": owners,
            "quarantined": quarantined,
            "requests": requests,
        }


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.1 => keep-alive: one connection per worker for the whole
    # campaign instead of a TCP handshake per cell operation.
    protocol_version = "HTTP/1.1"
    server_version = f"repro-cell-server/{PROTOCOL_VERSION}"
    # TCP_NODELAY on every accepted connection (see module docstring,
    # "One send per reply").
    disable_nagle_algorithm = True

    @property
    def state(self) -> _ServiceState:
        return self.server.state  # type: ignore[attr-defined]

    def log_message(self, *_args) -> None:  # quiet: stats > access logs
        pass

    # -- plumbing ------------------------------------------------------
    def _reply(
        self,
        code: int,
        payload: dict,
        *,
        endpoint: Optional[str] = None,
        close: bool = False,
    ) -> None:
        """Send one JSON reply.  ``endpoint`` is the resource the
        dispatch matched (``/stats`` counts requests by it); refusals
        and unknown paths pass none and are counted together, so a
        stray client cannot grow that map."""
        self.state.count_request(
            f"{self.command} {endpoint}" if endpoint else "other"
        )
        body = encode(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            # An unread (or unreadable) body is still on the socket:
            # the connection cannot carry another request.
            self.send_header("Connection", "close")
        # One write for head and body: end_headers() on the socket
        # would send the head by itself, and the body would then wait
        # out the client's delayed ACK (see module docstring).
        sock_file, self.wfile = self.wfile, io.BytesIO()
        try:
            self.end_headers()
            head = self.wfile.getvalue()
        finally:
            self.wfile = sock_file
        self.wfile.write(head + body)

    def _read_body(self, header: str) -> bytes:
        # Content-Length is bytes off a socket: a non-number used to
        # kill the handler thread with no reply, a negative one made
        # rfile.read block until the peer hung up, and a huge one
        # raised MemoryError.
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            raise WireError(
                400, f"Content-Length {header!r} is not a non-negative integer"
            )
        if length > _MAX_BODY_BYTES:
            raise WireError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte limit",
            )
        return self.rfile.read(length)

    def _dispatch(self) -> None:
        """Every request: version gate and match, then (for an
        operation that takes a body) read and validate, then the state
        method the table names.  All the protocol is in
        :mod:`repro.experiments.protocol`."""
        length = self.headers.get("Content-Length") or "0"
        # Until _read_body returns, whatever body the client sent is
        # still on the socket, and the reply must close the connection.
        unread = length != "0"
        try:
            op, args = match(self.command, self.path)
            if op.fields:
                raw = self._read_body(length)
                unread = False
                args.update(validate(op, decode(raw)))
        except WireError as refusal:
            self._reply(refusal.status, refusal.payload, close=unread)
            return
        payload = getattr(self.state, op.name)(**args)
        # The one reply whose status is not 200: a cell that is not there.
        code = 404 if payload.get("found") is False else 200
        self._reply(code, payload, endpoint=op.resource, close=unread)

    do_GET = do_PUT = do_POST = _dispatch  # noqa: N815 (http.server API)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # A restarted server must be able to rebind its advertised port
    # immediately, not after TIME_WAIT drains — workers are retrying.
    allow_reuse_address = True

    def __init__(self, address, state: _ServiceState) -> None:
        super().__init__(address, _Handler)
        self.state = state
        self.stopping = False

    def serve_until_stopped(self) -> None:
        """``serve_forever`` without its poll: each ``handle_request``
        blocks until a connection arrives, and ``CellServer.stop``
        sets ``stopping`` *before* it connects, so the wake-up is
        always seen."""
        while not self.stopping:
            self.handle_request()

    def verify_request(self, request, client_address) -> bool:
        # The wake-up connection (and anything racing it) is closed
        # unserved: a stopping server starts no new handler.
        return not self.stopping


class CellServer:
    """The cell service: construct, then :meth:`start` (background
    thread — tests, examples) or :meth:`serve_forever` (blocking —
    the ``cell-server`` CLI).

    ``store`` is the backend cell values are kept in (default: memory;
    pass a :class:`~repro.experiments.backends.DirectoryBackend` or
    :class:`~repro.experiments.backends.SQLiteBackend` to make the
    served cache durable across restarts).  ``port=0`` binds an
    ephemeral port; read :attr:`url` for the actual address.
    """

    def __init__(
        self,
        store: Optional[CacheBackend] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.state = _ServiceState(store if store is not None else MemoryBackend())
        self._httpd = _Server((host, port), self.state)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "CellServer":
        """Serve on a daemon thread; returns self (``CellServer().start()``)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_until_stopped,
            name=f"cell-server:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_until_stopped()

    def stop(self) -> None:
        self._httpd.stopping = True
        try:
            # Wake the accept loop now; nothing is sent.
            socket.create_connection((self.host, self.port), timeout=1.0).close()
        except ConnectionRefusedError:
            pass  # not listening: already stopped
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            if self._thread.is_alive():
                # Closing the socket under a thread still blocked in
                # accept would hide the failure; say so instead.
                raise RuntimeError(
                    f"cell server on {self.url} did not stop within 5 s"
                )
            self._thread = None
        self._httpd.server_close()

    def __repr__(self) -> str:
        return f"CellServer({self.url!r}, store={self.state.store!r})"
