"""Pluggable storage backends for the cell cache.

:class:`~repro.experiments.cache.CellCache` is a spec-hashing façade:
it turns a :class:`~repro.experiments.spec.CellSpec` into an
opaque sha256 key and a JSON document, and delegates storage to a
:class:`CacheBackend`.  A backend stores opaque ``key -> text``
pairs and — the part that makes distributed campaigns possible —
arbitrates **leases** over keys, so workers on different processes or
hosts can claim pending cells instead of partitioning them up front.

Four implementations ship:

* :class:`DirectoryBackend` — the original one-JSON-file-per-cell
  directory layout (``<root>/<key[:2]>/<key>.json``).  Works over any
  shared filesystem; leases are files hard-linked into
  ``<root>/.leases/``.
* :class:`MemoryBackend` — a dict, for tests and throwaway runs.
* :class:`SQLiteBackend` — a single database file in WAL mode.  One
  file instead of thousands keeps 10k-cell campaigns out of the
  filesystem's dentry cache, and claims are single atomic UPSERTs —
  the right arbitration primitive for many worker processes on one
  host.  WAL needs coherent shared memory, so this backend is
  **single-host**: workers on different machines must share a
  :class:`DirectoryBackend` filesystem instead.
* :class:`ServiceBackend` — an HTTP client for the cell service
  (:mod:`repro.experiments.service`, ``python -m repro.cli
  cell-server``).  The **shared-nothing** option: workers on any
  number of hosts need only a TCP route to the server; leases,
  failure records, and quarantine are arbitrated server-side.

Lease contract (all backends): ``claim(key, owner, ttl)`` returns
True when ``owner`` now holds the lease — either it was free, it had
expired (a crashed peer's lease is stolen), or ``owner`` already held
it (re-claiming refreshes the expiry).  ``release(key, owner)`` drops
the lease only if ``owner`` holds it.  ``renew(key, owner, ttl)``
extends a lease ``owner`` still holds un-expired — and refuses
otherwise, which is how a slow worker discovers its cell may have
been stolen.  A lease is advisory: ``put`` never checks one, so the
worst a misconfigured ttl causes is a duplicate computation of a
deterministic cell, never a wrong result.

Failure/quarantine contract (all backends; see
``docs/operations.md`` for triage): ``record_failure(key, owner,
error)`` appends a failure record and returns the total count for the
key; ``quarantine(key)`` marks the cell poisoned (idempotent) —
``claim`` refuses quarantined cells, so a cell that crashes its
worker deterministically stops ping-ponging between stealers once a
worker observes the failure budget spent and quarantines it.
"""

from __future__ import annotations

import http.client
import json
import os
import sqlite3
import threading
import time
import urllib.parse
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Protocol, Tuple, Union

from repro.experiments.protocol import API_PREFIX

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

    def release(self, key: str, owner: str) -> None:
        """Drop the lease on ``key`` if (and only if) ``owner`` holds it."""

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
# directory backend (the original CellCache layout)
# ----------------------------------------------------------------------

#: a tmp file whose writer's pid is gone is garbage after this grace
#: period; one whose pid *looks* alive (pids recycle, and a writer on
#: another NFS host has no local pid at all) is garbage after an hour —
#: no atomic write is in flight for an hour.
_TMP_GRACE_SECONDS = 60.0
_TMP_MAX_AGE_SECONDS = 3600.0


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

    Opening the backend garbage-collects stale ``*.tmp.<pid>`` files:
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
        self._gc_stale_tmp()

    # -- storage -------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[str]:
        try:
            return self.path_for(key).read_text()
        except FileNotFoundError:
            return None

    def put(self, key: str, value: str) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(value)
        os.replace(tmp, path)

    def keys(self) -> Iterator[str]:
        for path in self.root.glob("*/*.json"):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    # -- leases --------------------------------------------------------
    def _lease_path(self, key: str) -> Path:
        return self.root / ".leases" / f"{key}.lease"

    def claim(self, key: str, owner: str, ttl: float) -> bool:
        if self.is_quarantined(key):
            return False
        path = self._lease_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # repro-lint: allow(determinism) -- lease expiry needs a clock all hosts share
        payload = json.dumps({"owner": owner, "expires": time.time() + ttl})
        # The lease must appear with its payload or not at all: a file
        # created empty and written afterwards reads as garbage in
        # between, and garbage is stolen.  (Thread id in the name: two
        # owners may share a pid; the pid stays last for the tmp GC.)
        tmp = path.with_suffix(f".tmp.{threading.get_ident()}.{os.getpid()}")
        tmp.write_text(payload)
        try:
            os.link(tmp, path)
            return True
        except FileExistsError:
            try:
                doc = json.loads(path.read_text())
            except (FileNotFoundError, json.JSONDecodeError):
                doc = {}  # holder vanished or wrote garbage: steal
            if (
                doc.get("owner") != owner
                # repro-lint: allow(determinism) -- lease expiry needs a clock all hosts share
                and doc.get("expires", 0.0) > time.time()
            ):
                return False
            os.replace(tmp, path)
            return True
        finally:
            tmp.unlink(missing_ok=True)

    def release(self, key: str, owner: str) -> None:
        path = self._lease_path(key)
        try:
            doc = json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return
        if doc.get("owner") == owner:
            path.unlink(missing_ok=True)

    def renew(self, key: str, owner: str, ttl: float) -> bool:
        path = self._lease_path(key)
        try:
            doc = json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return False
        # repro-lint: allow(determinism) -- lease expiry needs a clock all hosts share
        if doc.get("owner") != owner or doc.get("expires", 0.0) <= time.time():
            return False
        # repro-lint: allow(determinism) -- lease expiry needs a clock all hosts share
        payload = json.dumps({"owner": owner, "expires": time.time() + ttl})
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(payload)
        os.replace(tmp, path)
        return True

    # -- failures / quarantine -----------------------------------------
    # Distinct suffixes (not .json): keys() globs */*.json, and cell
    # listings must never pick up failure case files.
    def _failure_path(self, key: str) -> Path:
        return self.root / ".failures" / f"{key}.failures"

    def _quarantine_path(self, key: str) -> Path:
        return self.root / ".quarantine" / f"{key}.quarantine"

    def record_failure(self, key: str, owner: str, error: str) -> int:
        # Read-modify-write without a cross-host lock: two workers
        # failing the same cell at the same instant may drop a record.
        # The count is a retry *budget*, not an audit log — a lost
        # update means at most one extra retry of a deterministic
        # cell, so the simplicity is worth it.
        records = self.failures(key)
        # repro-lint: allow(determinism) -- human-readable failure timestamp
        records.append({"owner": owner, "error": error, "time": time.time()})
        path = self._failure_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(records, indent=1))
        os.replace(tmp, path)
        return len(records)

    def failures(self, key: str) -> List[dict]:
        try:
            return json.loads(self._failure_path(key).read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return []

    def quarantine(self, key: str) -> None:
        path = self._quarantine_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        records = self.failures(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps({"count": len(records), "failures": records}, indent=1)
        )
        # Linked into place like a lease: the first case file wins, so
        # a failure recorded after the quarantine cannot rewrite it.
        try:
            os.link(tmp, path)
        except FileExistsError:
            pass
        finally:
            tmp.unlink(missing_ok=True)

    def is_quarantined(self, key: str) -> bool:
        return self._quarantine_path(key).exists()

    def quarantined(self) -> Dict[str, dict]:
        table: Dict[str, dict] = {}
        for path in self.root.glob(".quarantine/*.quarantine"):
            try:
                table[path.stem] = json.loads(path.read_text())
            except (FileNotFoundError, json.JSONDecodeError):
                continue  # mid-write; the writer will land it
        return table

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
        # repro-lint: allow(determinism) -- ages compared against filesystem mtimes
        now = time.time()
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
        for lease in self.root.glob(".leases/*.lease"):
            try:
                expires = json.loads(lease.read_text()).get("expires", 0.0)
            except (FileNotFoundError, json.JSONDecodeError):
                continue  # mid-claim or already reaped
            if now - expires > _TMP_MAX_AGE_SECONDS:
                lease.unlink(missing_ok=True)
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
        #: ``key -> (owner, monotonic expiry)``; read (never written)
        #: by the cell service's ``/stats`` view
        self.leases: Dict[str, Tuple[str, float]] = {}
        self._failures: Dict[str, List[dict]] = {}
        self._quarantined: Dict[str, dict] = {}
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[str]:
        return self._store.get(key)

    def put(self, key: str, value: str) -> None:
        self._store[key] = value

    def claim(self, key: str, owner: str, ttl: float) -> bool:
        with self._lock:
            if key in self._quarantined:
                return False
            held = self.leases.get(key)
            if held is not None:
                holder, expires = held
                if holder != owner and expires > time.monotonic():
                    return False
            self.leases[key] = (owner, time.monotonic() + ttl)
            return True

    def release(self, key: str, owner: str) -> bool:
        """Also reports whether ``owner`` held the lease (the cell
        service counts releases per worker)."""
        with self._lock:
            held = self.leases.get(key)
            if held is None or held[0] != owner:
                return False
            del self.leases[key]
            return True

    def renew(self, key: str, owner: str, ttl: float) -> bool:
        with self._lock:
            held = self.leases.get(key)
            if held is None or held[0] != owner or held[1] <= time.monotonic():
                return False
            self.leases[key] = (owner, time.monotonic() + ttl)
            return True

    def record_failure(
        self, key: str, owner: str, error: str, **extra
    ) -> int:
        """``extra`` fields ride along in the record (the cell service
        stores each report's request id there)."""
        with self._lock:
            records = self._failures.setdefault(key, [])
            records.append(
                # repro-lint: allow(determinism) -- human-readable failure timestamp
                {"owner": owner, "error": error, "time": time.time(), **extra}
            )
            return len(records)

    def failures(self, key: str) -> List[dict]:
        with self._lock:
            return list(self._failures.get(key, []))

    def quarantine(self, key: str) -> None:
        with self._lock:
            records = list(self._failures.get(key, []))
            self._quarantined.setdefault(
                key, {"count": len(records), "failures": records}
            )

    def is_quarantined(self, key: str) -> bool:
        with self._lock:
            return key in self._quarantined

    def quarantined(self) -> Dict[str, dict]:
        with self._lock:
            return {k: dict(v) for k, v in self._quarantined.items()}

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
    files, and a ``claim`` is a single atomic UPSERT — SQLite's
    locking arbitrates writers from any number of processes on one
    host.  WAL mode relies on a coherent ``-shm`` memory map, which
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
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS leases ("
            "key TEXT PRIMARY KEY, owner TEXT NOT NULL, expires REAL NOT NULL)"
        )
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS failures ("
            "key TEXT NOT NULL, owner TEXT NOT NULL, "
            "error TEXT NOT NULL, time REAL NOT NULL)"
        )
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS failures_key ON failures(key)"
        )
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS quarantine ("
            "key TEXT PRIMARY KEY, record TEXT NOT NULL)"
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

    def claim(self, key: str, owner: str, ttl: float) -> bool:
        # repro-lint: allow(determinism) -- lease expiry shared across processes via the db
        now = time.time()
        with self._lock:
            quarantined = self._conn.execute(
                "SELECT 1 FROM quarantine WHERE key = ?", (key,)
            ).fetchone()
            if quarantined:
                return False
            before = self._conn.total_changes
            # One atomic statement: insert a fresh lease, or take over
            # an expired/own one; a live foreign lease leaves the row
            # untouched (the WHERE fails) and total_changes unmoved.
            self._conn.execute(
                "INSERT INTO leases(key, owner, expires) VALUES(?, ?, ?) "
                "ON CONFLICT(key) DO UPDATE SET "
                "owner = excluded.owner, expires = excluded.expires "
                "WHERE leases.expires <= ? OR leases.owner = excluded.owner",
                (key, owner, now + ttl, now),
            )
            return self._conn.total_changes > before

    def release(self, key: str, owner: str) -> None:
        with self._lock:
            self._conn.execute(
                "DELETE FROM leases WHERE key = ? AND owner = ?", (key, owner)
            )

    def renew(self, key: str, owner: str, ttl: float) -> bool:
        # repro-lint: allow(determinism) -- lease expiry shared across processes via the db
        now = time.time()
        with self._lock:
            before = self._conn.total_changes
            self._conn.execute(
                "UPDATE leases SET expires = ? "
                "WHERE key = ? AND owner = ? AND expires > ?",
                (now + ttl, key, owner, now),
            )
            return self._conn.total_changes > before

    # -- failures / quarantine -----------------------------------------
    def record_failure(self, key: str, owner: str, error: str) -> int:
        with self._lock:
            self._conn.execute(
                "INSERT INTO failures(key, owner, error, time) "
                "VALUES(?, ?, ?, ?)",
                # repro-lint: allow(determinism) -- human-readable failure timestamp
                (key, owner, error, time.time()),
            )
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM failures WHERE key = ?", (key,)
            ).fetchone()
        return count

    def failures(self, key: str) -> List[dict]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT owner, error, time FROM failures "
                "WHERE key = ? ORDER BY rowid",
                (key,),
            ).fetchall()
        return [
            {"owner": owner, "error": error, "time": when}
            for owner, error, when in rows
        ]

    def quarantine(self, key: str) -> None:
        records = self.failures(key)
        record = json.dumps({"count": len(records), "failures": records})
        with self._lock:
            self._conn.execute(
                "INSERT OR IGNORE INTO quarantine(key, record) VALUES(?, ?)",
                (key, record),
            )

    def is_quarantined(self, key: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM quarantine WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def quarantined(self) -> Dict[str, dict]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, record FROM quarantine"
            ).fetchall()
        return {key: json.loads(record) for key, record in rows}

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

    def _json(self, method: str, path: str, doc: Optional[dict] = None):
        body = json.dumps(doc, sort_keys=True) if doc is not None else None
        status, text = self._request(method, path, body)
        try:
            payload = json.loads(text) if text else {}
        except json.JSONDecodeError:
            payload = {"error": text.strip()[:200]}
        if status >= 400 and status != 404:
            raise RuntimeError(
                f"cell service {self.url} rejected {method} {path}: "
                f"{payload.get('error', f'HTTP {status}')}"
            )
        return status, payload

    @staticmethod
    def _cell_path(key: str) -> str:
        return f"{API_PREFIX}/cells/{urllib.parse.quote(key, safe='')}"

    # -- storage -------------------------------------------------------
    def get(self, key: str) -> Optional[str]:
        status, doc = self._json("GET", self._cell_path(key))
        return None if status == 404 else doc["value"]

    def put(self, key: str, value: str) -> None:
        self._json("PUT", self._cell_path(key), {"value": value})

    def keys(self) -> Iterator[str]:
        _, doc = self._json("GET", f"{API_PREFIX}/cells")
        return iter(doc["keys"])

    def __len__(self) -> int:
        _, doc = self._json("GET", f"{API_PREFIX}/cells")
        return doc["count"]

    # -- leases --------------------------------------------------------
    def claim(self, key: str, owner: str, ttl: float) -> bool:
        _, doc = self._json(
            "POST", f"{API_PREFIX}/claim", {"key": key, "owner": owner, "ttl": ttl}
        )
        self._claim_quarantined[key] = doc.get("quarantined", False)
        return doc["granted"]

    def release(self, key: str, owner: str) -> None:
        self._json("POST", f"{API_PREFIX}/release", {"key": key, "owner": owner})

    def renew(self, key: str, owner: str, ttl: float) -> bool:
        _, doc = self._json(
            "POST", f"{API_PREFIX}/renew", {"key": key, "owner": owner, "ttl": ttl}
        )
        return doc["renewed"]

    # -- failures / quarantine -----------------------------------------
    def record_failure(self, key: str, owner: str, error: str) -> int:
        # The transport retries on a broken connection, and the fail
        # endpoint is the one non-idempotent call: a report whose
        # *response* was lost would be recorded twice, spending the
        # quarantine budget on phantom crashes.  The random id lets
        # the server drop the duplicate.
        _, doc = self._json(
            "POST",
            f"{API_PREFIX}/fail",
            {
                "key": key,
                "owner": owner,
                "error": error,
                # repro-lint: allow(determinism) -- dedup nonce for a lossy transport, never replayed
                "id": os.urandom(8).hex(),
            },
        )
        return doc["count"]

    def failures(self, key: str) -> List[dict]:
        status, doc = self._json(
            "GET", f"{API_PREFIX}/quarantine/{urllib.parse.quote(key, safe='')}"
        )
        return doc.get("failures", [])

    def quarantine(self, key: str) -> None:
        self._json("POST", f"{API_PREFIX}/quarantine", {"key": key})
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
        status, doc = self._json(
            "GET", f"{API_PREFIX}/quarantine/{urllib.parse.quote(key, safe='')}"
        )
        return doc.get("quarantined", False)

    def quarantined(self) -> Dict[str, dict]:
        _, doc = self._json("GET", f"{API_PREFIX}/quarantine")
        return doc["cells"]

    # -- monitoring ----------------------------------------------------
    def stats(self) -> dict:
        """The server's ``/v1/stats`` document: lease table, per-owner
        throughput counters, quarantine list (see docs/operations.md)."""
        _, doc = self._json("GET", f"{API_PREFIX}/stats")
        return doc

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __repr__(self) -> str:
        # Deliberately no round trip: reprs appear in error messages
        # raised precisely when the server is unreachable.
        return f"ServiceBackend({self.url!r})"
