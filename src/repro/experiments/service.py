"""The HTTP cell service: a shared-nothing campaign backend.

``CellServer`` serves a campaign's cell cache over a **versioned JSON
protocol** (stdlib :mod:`socketserver` — no new dependencies), so
workers on any number of hosts need nothing in common but a TCP route
to one server: no NFS export, no shared SQLite file, no coherent
filesystem semantics anywhere.  The matching client is
:class:`repro.experiments.backends.ServiceBackend`; the CLI front ends
are ``python -m repro.cli cell-server`` (serve) and ``campaign-status``
(monitor).  The full wire reference with examples lives in
``docs/operations.md``.

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
  ``/v2``; any other prefix is rejected with HTTP 400 and an error
  naming the version this server speaks, so a client/server mismatch
  fails loudly at the first request instead of corrupting a campaign.
  This module spells none of it: the handler's one dispatch asks
  :mod:`repro.experiments.protocol` which table entry a request
  matches and what its typed fields are, then calls the
  ``_ServiceState`` method of that name — a field of the wrong type
  is a 400 naming it, and never reaches the state.
* **Monitoring built in.**  ``GET /v2/stats`` exposes the live lease
  table and per-owner counters (claims, commits, failures, renews) —
  per-worker throughput for a running campaign without touching the
  workers — and a per-endpoint ``requests`` count, so the scheduler's
  request budget (docs/operations.md, "Lease and TTL tuning") is
  visible on a live campaign.
* **One HTTP/1.1, one send per reply.**  The stdlib keeps the accept
  loop and a thread per connection.  The handler reads each head and
  frames each body with :mod:`repro.experiments.protocol`'s
  ``read_head`` and ``body_length``, as ``ServiceBackend`` reads
  replies, and every reply, refusals included, is ``_reply``'s: a JSON
  body, one write on a ``TCP_NODELAY`` connection, and ``Connection:
  close`` when bytes it could not frame are left on the socket.  Two
  small sends would make Nagle wait for the client's *delayed* ACK,
  40 ms a round trip on loopback (docs/performance.md, "The
  cell-service round trip").
* **Prompt shutdown.**  The accept loop blocks until a connection
  arrives rather than polling a flag (``serve_forever`` wakes every
  0.5 s, and ``shutdown()`` waits that out); ``stop()`` sets the flag
  and then connects to the listening socket to wake it.
"""

from __future__ import annotations

import datetime
import socket
import socketserver
import sys
import threading
import time
from collections import Counter
from http import HTTPStatus
from typing import Dict, Optional

from repro.experiments.backends import YOURS, CacheBackend, MemoryBackend
from repro.experiments.protocol import (
    API_PREFIX,
    CLAIM_WORDS,
    PROTOCOL_VERSION,
    WireError,
    body_length,
    decode,
    encode,
    match,
    read_head,
    validate,
    write_head,
)

__all__ = ["CellServer", "PROTOCOL_VERSION", "API_PREFIX"]


#: the ``Server`` header of every reply
_SERVER = f"repro-cell-server/{PROTOCOL_VERSION} Python/{sys.version.split()[0]}"

_DAYS = "Mon Tue Wed Thu Fri Sat Sun".split()
_MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


def _http_date(seconds: float) -> str:
    """``seconds`` as a ``Date`` header spells it, whatever the locale."""
    t = datetime.datetime.fromtimestamp(seconds, datetime.timezone.utc)
    return (
        f"{_DAYS[t.weekday()]}, {t.day:02d} {_MONTHS[t.month - 1]} "
        f"{t.year} {t:%H:%M:%S} GMT"
    )


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
    lease rules over the memory medium, with ``store`` as its cells —
    so the server adds only what is its own: per-owner counters, the
    request-id dedupe on ``/fail``, and the ``/stats`` view.
    """

    def __init__(self, store: CacheBackend) -> None:
        self.store = store
        self.arbiter = MemoryBackend()
        # a claim looks at, and a commit writes to, the served cells
        self.arbiter.get, self.arbiter._save = store.get, store.put
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
            answer = self.arbiter.claim(key, owner, ttl)
            if isinstance(answer, str):
                return {"claim": "done", "value": answer}
            record["claims"] += answer is YOURS
            return {"claim": CLAIM_WORDS[answer]}

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
        # carries no owner; the lease table knows whose cell this is),
        # then store the cell, which ends that lease.
        with self.lock:
            held = self.arbiter.read("leases", key)
            owner = held["owner"] if held is not None else "(unleased)"
            self._touch(owner)["commits"] += 1
            self.arbiter.put(key, value)
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


class _Handler(socketserver.StreamRequestHandler):
    """One connection: its requests, read and answered in turn."""

    # TCP_NODELAY on every accepted connection (see module docstring,
    # "one send per reply").
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        except ConnectionError:
            pass  # the peer hung up mid-request or mid-reply

    def _serve_one(self) -> bool:
        """Read one request and answer it: head, what HTTP itself
        refuses, then the table's match and fields, the state method
        it names, and the reply.  Returns whether the connection can
        carry another request."""
        keep = False
        # body bytes still on the socket; None until the head frames them
        unread: Optional[int] = None
        try:
            head = read_head(self.rfile.readline)
            if head is None:
                return False  # the peer is gone
            start, headers = head
            words = start.split()
            if len(words) != 3:
                raise WireError(400, f"malformed request line {start[:80]!r}")
            method, target, version = words
            if version not in ("HTTP/1.1", "HTTP/1.0"):
                raise WireError(505, f"HTTP version {version[:20]!r} is not supported")
            unread = body_length(headers)
            http11 = version == "HTTP/1.1"
            keep = http11 and headers.get("connection", "").lower() != "close"
            if http11 and headers.get("expect", "").lower() == "100-continue":
                self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            op, args = match(method, target)
            if op.fields:
                raw = self.rfile.read(unread)
                if len(raw) < unread:
                    return False  # the peer hung up mid-body
                unread = 0
                args.update(validate(op, decode(raw)))
            payload = getattr(self.server.state, op.name)(**args)
            # The one reply whose status is not 200: a cell that is not there.
            code = 404 if payload.get("found") is False else 200
            endpoint = f"{method} {op.resource}"
        except WireError as refusal:
            code, payload, endpoint = refusal.status, refusal.payload, "other"
        # Bytes left unread, or unframed, would be read as the next request.
        self._reply(code, payload, endpoint=endpoint, close=unread != 0)
        return keep and unread == 0

    def _reply(self, code: int, payload: dict, endpoint: str, close: bool) -> None:
        """Send one JSON reply, head and body in one write (see module
        docstring).  ``endpoint`` is what ``/stats`` counts the request
        under: ``other`` for every refusal, so a stray client cannot
        grow that map.  ``close``: the connection ends after it."""
        self.server.state.count_request(endpoint)
        body = encode(payload).encode("utf-8")
        headers = {
            "Server": _SERVER,
            # wall clock, display only: an ALLOWED row in tests/test_determinism.py
            "Date": _http_date(time.time()),
            "Content-Type": "application/json",
            "Content-Length": len(body),
        }
        if close:
            headers["Connection"] = "close"
        status = f"HTTP/1.1 {code} {HTTPStatus(code).phrase}"
        self.wfile.write(write_head(status, headers) + body)


class _Server(socketserver.ThreadingTCPServer):
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
