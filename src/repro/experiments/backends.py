"""Pluggable storage backends for the cell cache.

:class:`~repro.experiments.cache.CellCache` is a spec-hashing façade:
it turns a :class:`~repro.experiments.spec.CellSpec` into an
opaque sha256 key and a JSON document, and delegates storage to a
:class:`CacheBackend`.  A backend stores opaque ``key -> text``
pairs and — the part that makes distributed campaigns possible —
arbitrates **leases** over keys, so workers on different processes or
hosts can claim pending cells instead of partitioning them up front.

Lease contract: ``claim(key, owner, ttl)`` returns True when ``owner``
now holds the lease — either it was free, it had expired (a crashed
peer's lease is stolen), or ``owner`` already held it (re-claiming
refreshes the expiry).  ``release(key, owner)`` drops the lease only
if ``owner`` holds it, and says whether it did.  ``renew(key, owner,
ttl)`` extends a lease ``owner`` still holds un-expired — and refuses
otherwise, which is how a slow worker discovers its cell may have
been stolen.  A lease is advisory: ``put`` never checks one, so the
worst a misconfigured ttl causes is a duplicate computation of a
deterministic cell, never a wrong result.

Failure/quarantine contract (see ``docs/operations.md`` for triage):
``record_failure(key, owner, error)`` appends a failure record and
returns the total count for the key; ``quarantine(key)`` marks the
cell poisoned (idempotent) — ``claim`` refuses quarantined cells, so a
cell that crashes its worker deterministically stops ping-ponging
between stealers once a worker observes the failure budget spent and
quarantines it.

Each rule has one body ("the lease rules" below, bound into the three
local classes), written against a **record store**: ``leases``,
``failures`` and ``quarantine`` tables of JSON records behind
``read(table, key)``, ``write(table, key, record, new=False)``
(``new``: first writer wins; returns whether this call stored it),
``delete(table, key)`` and ``items(table)``, plus the medium's clock
and the atomic section a rule reads and writes in.  Four media ship:

* :class:`DirectoryBackend` — one JSON file per cell
  (``<root>/<key[:2]>/<key>.json``) and per record, over any shared
  filesystem; wall clock, the one hosts share.  Atomic section: a lock
  over the handle's threads — **nothing beyond the process**.  Across
  processes a ``new`` write is still exclusive (a hard link), but two
  survivors can both take over an *expired* lease and two simultaneous
  failure reports can lose one: one extra run of a deterministic cell.
* :class:`MemoryBackend` — dicts and ``time.monotonic``, for tests and
  throwaway runs; its lock covers every thread that can see them.
* :class:`SQLiteBackend` — a single database file in WAL mode; wall
  clock.  Atomic section: one ``BEGIN IMMEDIATE`` transaction, so
  SQLite's write lock serialises whole rules (a claim's quarantine
  check included) across every process on the host.  WAL needs
  coherent shared memory, so this backend is **single-host**: workers
  on different machines share a :class:`DirectoryBackend` instead.
* :class:`ServiceBackend` — an HTTP client for the cell service
  (:mod:`repro.experiments.service`, ``python -m repro.cli
  cell-server``).  The **shared-nothing** option: workers on any
  number of hosts need only a TCP route to the server, which runs the
  rules over a :class:`MemoryBackend` — one clock, one lock.  Every
  request is one ``_call`` naming an entry of the wire table in
  :mod:`repro.experiments.protocol`, which spells the path and body.

Keys are opaque but not arbitrary: the directory medium turns one into
a file name, so it refuses a key that is not a single path component
(``ValueError``), and the cell service refuses anything outside
``[0-9A-Za-z_-]{1,128}`` on the wire.
"""

from __future__ import annotations

import http.client
import json
import os
import sqlite3
import threading
import time
import urllib.parse
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Protocol, Tuple, Union

from repro.experiments.protocol import ENDPOINTS, encode, path_for

__all__ = [
    "BackendUnavailableError",
    "CacheBackend",
    "DirectoryBackend",
    "MemoryBackend",
    "SQLiteBackend",
    "ServiceBackend",
]


class BackendUnavailableError(RuntimeError):
    """The cache backend cannot be reached (as opposed to holding a
    corrupt cell).

    Raised with the backend's identity and a remedy instead of letting
    a bare ``OSError``/``sqlite3`` error escape from deep inside the
    cache façade mid-campaign.  The campaign cache is resumable by
    design, so the remedy is always some variant of "restore the
    backend and re-run the same command".
    """


class CacheBackend(Protocol):
    """Opaque key/value store with lease arbitration.

    Keys are content-address strings (the façade hashes specs into
    them); values are opaque text (the façade uses JSON documents).
    """

    def get(self, key: str) -> Optional[str]:
        """The stored text for ``key``, or None when absent."""

    def put(self, key: str, value: str) -> None:
        """Durably store ``value`` under ``key`` (atomic, last wins)."""

    def claim(self, key: str, owner: str, ttl: float) -> bool:
        """Try to lease ``key`` for ``owner`` for ``ttl`` seconds.

        True when ``owner`` holds the lease afterwards (fresh, stolen
        from an expired holder, or refreshed); False when a live lease
        is held by someone else **or the key is quarantined**.
        """

    def release(self, key: str, owner: str) -> bool:
        """Drop ``owner``'s lease on ``key``; False when it holds none."""

    def renew(self, key: str, owner: str, ttl: float) -> bool:
        """Extend a lease ``owner`` still holds un-expired.

        False when the lease expired or changed hands — unlike
        :meth:`claim`, a renewal never takes a lease over, so a slow
        worker learns (rather than hides) that its cell may have been
        stolen.
        """

    def record_failure(self, key: str, owner: str, error: str) -> int:
        """Append a failure record for ``key``; returns the total
        failure count across all workers (the retry budget spent)."""

    def failures(self, key: str) -> List[dict]:
        """The failure records for ``key`` (``owner``/``error``/``time``
        dicts), oldest first."""

    def quarantine(self, key: str) -> None:
        """Mark ``key`` poisoned: :meth:`claim` refuses it from now
        on.  Idempotent; the recorded failures become its case file."""

    def is_quarantined(self, key: str) -> bool:
        """Whether ``key`` has been quarantined."""

    def quarantined(self) -> Dict[str, dict]:
        """All quarantined keys with their case files
        (``{"count": int, "failures": [...]}``)."""

    def keys(self) -> Iterator[str]:
        """Iterate over the stored keys."""

    def __len__(self) -> int:
        """Number of stored values (leases do not count)."""


# ----------------------------------------------------------------------
# the lease rules: one body each, run by every local medium
# ----------------------------------------------------------------------
# ``self`` is a medium: the four primitives, ``_now()`` and ``_atomic``.
# A lease is ``{"owner", "expires"}``, a failure log a list (oldest
# first), a case file ``{"count", "failures"}``; see CacheBackend.
def _wall_clock() -> float:
    # the shared wall clock: an ALLOWED row in tests/test_determinism.py
    return time.time()


def _claim(self, key: str, owner: str, ttl: float) -> bool:
    with self._atomic:
        if self.read("quarantine", key) is not None:
            return False
        now = self._now()
        lease = {"owner": owner, "expires": now + ttl}
        if not self.write("leases", key, lease, new=True):
            held = self.read("leases", key) or {}  # unreadable: nobody's
            if held.get("owner") != owner and held.get("expires", 0.0) > now:
                return False
            self.write("leases", key, lease)
        return True


def _release(self, key: str, owner: str) -> bool:
    with self._atomic:
        held = self.read("leases", key) or {}
        if held.get("owner") != owner:
            return False
        self.delete("leases", key)
        return True


def _renew(self, key: str, owner: str, ttl: float) -> bool:
    with self._atomic:
        now = self._now()
        held = self.read("leases", key) or {}
        if held.get("owner") != owner or held.get("expires", 0.0) <= now:
            return False
        self.write("leases", key, {"owner": owner, "expires": now + ttl})
        return True


def _record_failure(self, key: str, owner: str, error: str, **extra) -> int:
    """``extra`` fields ride along in the record (the cell service
    stores each report's request id there)."""
    record = {"owner": owner, "error": error, "time": _wall_clock(), **extra}
    with self._atomic:
        # A new list, never an append in place: a case file and a
        # caller of failures() may still hold the old one.
        records = [*(self.read("failures", key) or ()), record]
        self.write("failures", key, records)
        return len(records)


def _failures(self, key: str) -> List[dict]:
    with self._atomic:
        return list(self.read("failures", key) or ())


def _quarantine(self, key: str) -> None:
    with self._atomic:
        records = self.read("failures", key) or []
        case = {"count": len(records), "failures": records}
        # ``new``: the first case file wins over any later failure.
        self.write("quarantine", key, case, new=True)


def _is_quarantined(self, key: str) -> bool:
    with self._atomic:
        return self.read("quarantine", key) is not None


def _quarantined(self) -> Dict[str, dict]:
    with self._atomic:
        return {key: dict(case) for key, case in self.items("quarantine")}


# ----------------------------------------------------------------------
# directory backend (the original CellCache layout)
# ----------------------------------------------------------------------

#: a tmp file whose writer's pid is gone is garbage after this grace
#: period; one whose pid *looks* alive (pids recycle, and a writer on
#: another NFS host has no local pid at all) is garbage after an hour —
#: no atomic write is in flight for an hour.
_TMP_GRACE_SECONDS = 60.0
_TMP_MAX_AGE_SECONDS = 3600.0

#: record table -> (file suffix, json indent) under ``<root>/.<table>/``.
#: Distinct suffixes (not .json): keys() globs */*.json, and cell
#: listings must never pick up failure case files.
_RECORD_FILES = {
    "leases": ("lease", None),
    "failures": ("failures", 1),
    "quarantine": ("quarantine", 1),
}


def _component(key: str) -> str:
    """``key`` as the single path component it must be: here a key
    becomes a path, whatever sits in front of the store, and ``../x``
    would land outside the root."""
    if not key or key.startswith(".") or "/" in key or os.sep in key:
        raise ValueError(f"cell key {key!r} is not a single path component")
    return key


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


class DirectoryBackend:
    """One JSON file per key under ``<root>/<key[:2]>/<key>.json``.

    The historical ``CellCache`` on-disk layout, unchanged — caches
    written by earlier versions keep working.  Leases are files under
    ``<root>/.leases/`` hard-linked into place complete (``link`` is
    atomic and exclusive, so a fresh cell has one holder); taking
    over an *expired* lease is a read-then-replace, which two
    survivors of a crashed peer can both win — good enough for a
    lease whose worst failure is a duplicated deterministic cell.

    Opening the backend garbage-collects stale ``*.tmp.<tid>.<pid>`` files:
    atomic writes go through a temp file + ``os.replace``, and a
    worker killed between the two used to leave the temp file behind
    forever.  A tmp file is removed when its writer's pid is dead and
    it is older than a minute, or unconditionally after an hour (a
    foreign host's writer has no local pid; no write is in flight for
    an hour).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._atomic = threading.Lock()
        self._gc_stale_tmp()

    # -- storage -------------------------------------------------------
    def path_for(self, key: str) -> Path:
        key = _component(key)
        return self.root / key[:2] / f"{key}.json"

    def _write_atomic(self, path: Path, text: str, new: bool = False) -> bool:
        """The one way anything is written here: ``path`` appears with
        all of ``text`` or not at all (a lease created empty and filled
        afterwards reads as garbage in between, and garbage is stolen).
        With ``new`` an existing ``path`` stays and the answer is False."""
        path.parent.mkdir(parents=True, exist_ok=True)
        # Thread id: two writers of one path may share a pid.  The pid
        # stays last, where the tmp GC looks for it.
        tmp = path.with_suffix(f".tmp.{threading.get_ident()}.{os.getpid()}")
        tmp.write_text(text)
        if not new:
            os.replace(tmp, path)
            return True
        try:
            os.link(tmp, path)
            return True
        except FileExistsError:
            return False
        finally:
            tmp.unlink()

    def get(self, key: str) -> Optional[str]:
        try:
            return self.path_for(key).read_text()
        except FileNotFoundError:
            return None

    def put(self, key: str, value: str) -> None:
        self._write_atomic(self.path_for(key), value)

    def keys(self) -> Iterator[str]:
        for path in self.root.glob("*/*.json"):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    # -- the record store ----------------------------------------------
    def _record_path(self, table: str, key: str) -> Path:
        suffix = _RECORD_FILES[table][0]
        return self.root / f".{table}" / f"{_component(key)}.{suffix}"

    def read(self, table: str, key: str) -> Any:
        try:
            return json.loads(self._record_path(table, key).read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return None  # absent, or damaged by hand: the same thing

    def write(self, table: str, key: str, record: Any, new: bool = False) -> bool:
        text = json.dumps(record, indent=_RECORD_FILES[table][1])
        return self._write_atomic(self._record_path(table, key), text, new)

    def delete(self, table: str, key: str) -> None:
        self._record_path(table, key).unlink(missing_ok=True)

    def items(self, table: str) -> Iterator[Tuple[str, Any]]:
        for path in self.root.glob(f".{table}/*.{_RECORD_FILES[table][0]}"):
            record = self.read(table, path.stem)
            if record is not None:
                yield path.stem, record

    _now = staticmethod(_wall_clock)

    claim, release, renew = _claim, _release, _renew
    record_failure, failures = _record_failure, _failures
    quarantine, is_quarantined, quarantined = _quarantine, _is_quarantined, _quarantined

    # -- maintenance ---------------------------------------------------
    def _gc_stale_tmp(self) -> int:
        """Remove orphaned atomic-write temp files and long-expired
        lease files; returns the count removed.

        Leases are normally unlinked on release; only crashed workers
        leave them behind, and a stealing campaign with many crashes
        would otherwise re-grow the thousands-of-tiny-files problem.
        A lease whose expiry is more than an hour past is unlinked
        (racing a concurrent re-claim in that window can only drop an
        advisory lease — worst case one duplicated deterministic
        cell, never a wrong result).
        """
        removed = 0
        now = self._now()  # compared against filesystem mtimes too
        for tmp in self.root.rglob("*.tmp.*"):
            pid_text = tmp.name.rsplit(".", 1)[-1]
            try:
                age = now - tmp.stat().st_mtime
            except FileNotFoundError:
                continue  # a concurrent writer just renamed it
            dead = pid_text.isdigit() and not _pid_alive(int(pid_text))
            if (dead and age > _TMP_GRACE_SECONDS) or age > _TMP_MAX_AGE_SECONDS:
                tmp.unlink(missing_ok=True)
                removed += 1
        for key, lease in self.items("leases"):
            if now - lease.get("expires", 0.0) > _TMP_MAX_AGE_SECONDS:
                self.delete("leases", key)
                removed += 1
        return removed

    def __repr__(self) -> str:
        return f"DirectoryBackend({str(self.root)!r}, {len(self)} cells)"


# ----------------------------------------------------------------------
# in-memory backend (tests, throwaway runs)
# ----------------------------------------------------------------------
class MemoryBackend:
    """Dict-backed backend; leases work across threads, not processes.

    Single-process, so lease expiry runs on ``time.monotonic()`` —
    immune to wall-clock steps mid-campaign.  This is also the cell
    service's lease, failure and quarantine arbitration
    (:mod:`repro.experiments.service` keeps a private instance), so
    the in-memory lease contract is implemented exactly once.
    """

    def __init__(self) -> None:
        self._store: Dict[str, str] = {}
        self._records = {"leases": {}, "failures": {}, "quarantine": {}}
        self._atomic = threading.Lock()

    def get(self, key: str) -> Optional[str]:
        return self._store.get(key)

    def put(self, key: str, value: str) -> None:
        self._store[key] = value

    # -- the record store ----------------------------------------------
    def read(self, table: str, key: str) -> Any:
        return self._records[table].get(key)

    def write(self, table: str, key: str, record: Any, new: bool = False) -> bool:
        rows = self._records[table]
        if new and key in rows:
            return False
        rows[key] = record
        return True

    def delete(self, table: str, key: str) -> None:
        self._records[table].pop(key, None)

    def items(self, table: str) -> List[Tuple[str, Any]]:
        return list(self._records[table].items())

    _now = staticmethod(time.monotonic)

    claim, release, renew = _claim, _release, _renew
    record_failure, failures = _record_failure, _failures
    quarantine, is_quarantined, quarantined = _quarantine, _is_quarantined, _quarantined

    def keys(self) -> Iterator[str]:
        return iter(list(self._store))

    def __len__(self) -> int:
        return len(self._store)

    def __repr__(self) -> str:
        return f"MemoryBackend({len(self)} cells)"


# ----------------------------------------------------------------------
# sqlite backend (single file, WAL — one host, dentry-cache-friendly)
# ----------------------------------------------------------------------
class SQLiteBackend:
    """All cells in one WAL-mode SQLite file.

    A 10k-cell campaign is one database file instead of 10k JSON
    files, and a ``claim`` is a single ``BEGIN IMMEDIATE`` transaction
    — SQLite's locking arbitrates writers from any number of processes
    on one host.  WAL mode relies on a coherent ``-shm`` memory map, which
    network filesystems do not provide, so do **not** point workers
    on different hosts at one database file — use a
    :class:`DirectoryBackend` on the shared filesystem for that.
    ``timeout`` is the busy-wait budget for a locked database.
    """

    def __init__(self, path: Union[str, Path], *, timeout: float = 30.0) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(
            str(self.path),
            timeout=timeout,
            isolation_level=None,  # autocommit: every statement durable
            check_same_thread=False,
        )
        self._lock = threading.Lock()
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS cells ("
            "key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        # One JSON row per lease, failure log and case file (a file from
        # an older build keeps its three tables, unread: docs/operations.md).
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS records ("
            "tbl TEXT NOT NULL, key TEXT NOT NULL, record TEXT NOT NULL, "
            "PRIMARY KEY (tbl, key))"
        )

    def get(self, key: str) -> Optional[str]:
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM cells WHERE key = ?", (key,)
            ).fetchone()
        return row[0] if row else None

    def put(self, key: str, value: str) -> None:
        with self._lock:
            self._conn.execute(
                "INSERT INTO cells(key, value) VALUES(?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (key, value),
            )

    # -- the record store (use under ``with self._atomic``) ------------
    def read(self, table: str, key: str) -> Any:
        query = "SELECT record FROM records WHERE tbl = ? AND key = ?"
        row = self._conn.execute(query, (table, key)).fetchone()
        return json.loads(row[0]) if row else None

    def write(self, table: str, key: str, record: Any, new: bool = False) -> bool:
        cursor = self._conn.execute(
            f"INSERT OR {'IGNORE' if new else 'REPLACE'} "
            "INTO records(tbl, key, record) VALUES(?, ?, ?)",
            (table, key, json.dumps(record)),
        )
        return cursor.rowcount > 0

    def delete(self, table: str, key: str) -> None:
        query = "DELETE FROM records WHERE tbl = ? AND key = ?"
        self._conn.execute(query, (table, key))

    def items(self, table: str) -> List[Tuple[str, Any]]:
        query = "SELECT key, record FROM records WHERE tbl = ?"
        rows = self._conn.execute(query, (table,))
        return [(key, json.loads(record)) for key, record in rows]

    _now = staticmethod(_wall_clock)

    @property
    @contextmanager
    def _atomic(self) -> Iterator[None]:
        """One write transaction: the lock keeps this handle's threads
        off the shared connection, ``BEGIN IMMEDIATE`` keeps every
        other connection's rules out until the commit."""
        with self._lock, self._conn:  # commits; rolls back on an error
            self._conn.execute("BEGIN IMMEDIATE")
            yield

    claim, release, renew = _claim, _release, _renew
    record_failure, failures = _record_failure, _failures
    quarantine, is_quarantined, quarantined = _quarantine, _is_quarantined, _quarantined

    def keys(self) -> Iterator[str]:
        with self._lock:
            rows = self._conn.execute("SELECT key FROM cells").fetchall()
        return iter([r[0] for r in rows])

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM cells"
            ).fetchone()
        return count

    def close(self) -> None:
        self._conn.close()

    def __repr__(self) -> str:
        return f"SQLiteBackend({str(self.path)!r}, {len(self)} cells)"


# ----------------------------------------------------------------------
# HTTP service backend (shared-nothing: workers need only TCP)
# ----------------------------------------------------------------------
class ServiceBackend:
    """Client for the HTTP cell service
    (:class:`repro.experiments.service.CellServer`, CLI
    ``python -m repro.cli cell-server``).

    Speaks the versioned JSON protocol documented in
    ``docs/operations.md``: cells live under ``/v1/cells/<key>``,
    leases/failures/quarantine are arbitrated **server-side** (one
    clock, one lease table — no shared filesystem or database file
    anywhere).  The constructor probes ``/v1/stats`` so a wrong URL or
    a dead server fails fast, at startup, with a
    :class:`BackendUnavailableError` naming the remedy instead of
    hanging a campaign mid-run.

    One persistent keep-alive connection per backend instance; the
    instance is not thread-safe (``run_cells`` only touches the cache
    from the scheduler, never from pool workers) but is cheap to
    construct per process.
    """

    def __init__(self, url: str, *, timeout: float = 30.0) -> None:
        parsed = urllib.parse.urlsplit(url if "//" in url else f"//{url}")
        if parsed.scheme not in ("", "http"):
            raise ValueError(
                f"cell service URL {url!r}: only http:// is supported"
            )
        if not parsed.hostname:
            raise ValueError(f"cell service URL {url!r} has no host")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.url = f"http://{self.host}:{self.port}"
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None
        #: quarantine flag from each key's most recent claim response
        #: — lets is_quarantined() answer without a second round trip
        #: right after a refused claim (the steal loop's hot pattern)
        self._claim_quarantined: Dict[str, bool] = {}
        stats = self.stats()  # fail fast: reachability + protocol check
        self.server_protocol = stats.get("protocol")

    # -- plumbing ------------------------------------------------------
    def _unavailable(self, exc: Exception) -> BackendUnavailableError:
        return BackendUnavailableError(
            f"cell service at {self.url} is unreachable ({exc!r}). "
            "Is the server running?  Start it with `python -m repro.cli "
            "cell-server` (see docs/operations.md), then re-run this "
            "command — the campaign resumes from the cells already "
            "committed."
        )

    def _request(self, method: str, path: str, body: Optional[str] = None):
        payload = body.encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        # One retry with a fresh connection: a keep-alive socket the
        # server closed between requests is indistinguishable from a
        # dead server until we try it.
        for attempt in (0, 1):
            try:
                if self._conn is None:
                    self._conn = http.client.HTTPConnection(
                        self.host, self.port, timeout=self.timeout
                    )
                self._conn.request(method, path, body=payload, headers=headers)
                response = self._conn.getresponse()
                text = response.read().decode("utf-8")
                return response.status, text
            except (OSError, http.client.HTTPException) as exc:
                if self._conn is not None:
                    self._conn.close()
                    self._conn = None
                if attempt:
                    raise self._unavailable(exc) from exc
        raise AssertionError("unreachable")  # pragma: no cover

    def _call(self, name: str, key: Optional[str] = None, **fields):
        """One operation of the protocol table: ``(status, reply)``."""
        op = ENDPOINTS[name]
        if "key" in op.fields:
            fields["key"] = key
        path = path_for(name, key)
        status, text = self._request(
            op.method, path, encode(fields) if op.fields else None
        )
        try:
            payload = json.loads(text) if text else {}
        except json.JSONDecodeError:
            payload = {"error": text.strip()[:200]}
        if status >= 400 and status != 404:
            raise RuntimeError(
                f"cell service {self.url} rejected {op.method} {path}: "
                f"{payload.get('error', f'HTTP {status}')}"
            )
        return status, payload

    # -- storage -------------------------------------------------------
    def get(self, key: str) -> Optional[str]:
        status, doc = self._call("get", key)
        return None if status == 404 else doc["value"]

    def put(self, key: str, value: str) -> None:
        self._call("put", key, value=value)

    def keys(self) -> Iterator[str]:
        return iter(self._call("cells")[1]["keys"])

    def __len__(self) -> int:
        return self._call("cells")[1]["count"]

    # -- leases --------------------------------------------------------
    def claim(self, key: str, owner: str, ttl: float) -> bool:
        _, doc = self._call("claim", key, owner=owner, ttl=ttl)
        self._claim_quarantined[key] = doc.get("quarantined", False)
        return doc["granted"]

    def release(self, key: str, owner: str) -> bool:
        return self._call("release", key, owner=owner)[1]["released"]

    def renew(self, key: str, owner: str, ttl: float) -> bool:
        return self._call("renew", key, owner=owner, ttl=ttl)[1]["renewed"]

    # -- failures / quarantine -----------------------------------------
    def record_failure(self, key: str, owner: str, error: str) -> int:
        # The transport retries on a broken connection, and the fail
        # endpoint is the one non-idempotent call: a report whose
        # *response* was lost would be recorded twice, spending the
        # quarantine budget on phantom crashes.  The random id lets
        # the server drop the duplicate.  (Host entropy: an ALLOWED
        # row in tests/test_determinism.py.)
        nonce = os.urandom(8).hex()
        _, doc = self._call("record_failure", key, owner=owner, error=error, id=nonce)
        return doc["count"]

    def failures(self, key: str) -> List[dict]:
        return self._call("quarantine_entry", key)[1].get("failures", [])

    def quarantine(self, key: str) -> None:
        self._call("quarantine", key)
        self._claim_quarantined[key] = True

    def is_quarantined(self, key: str) -> bool:
        # The steal loop asks this right after a refused claim, and
        # the claim response already carried the answer — reuse it
        # instead of a second round trip per deferred cell per poll.
        # At most one poll round stale, and only in the safe
        # direction: a just-quarantined cell is re-answered by the
        # next claim.
        cached = self._claim_quarantined.get(key)
        if cached is not None:
            return cached
        return self._call("quarantine_entry", key)[1].get("quarantined", False)

    def quarantined(self) -> Dict[str, dict]:
        return self._call("quarantined")[1]["cells"]

    # -- monitoring ----------------------------------------------------
    def stats(self) -> dict:
        """The server's ``/v1/stats`` document: lease table, per-owner
        throughput counters, quarantine list (see docs/operations.md)."""
        return self._call("stats")[1]

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __repr__(self) -> str:
        # Deliberately no round trip: reprs appear in error messages
        # raised precisely when the server is unreachable.
        return f"ServiceBackend({self.url!r})"
