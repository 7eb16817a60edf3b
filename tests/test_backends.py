"""Contract tests for the pluggable cell-cache backends.

Every backend (directory, memory, sqlite, HTTP service) must satisfy
the same storage semantics (opaque key/value, atomic last-wins put),
the same lease contract (claim/release/renew with ttl expiry and
takeover), and the same failure/quarantine contract — the
work-stealing scheduler in ``run_cells`` relies on nothing else.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from repro.experiments.backends import (
    DirectoryBackend,
    MemoryBackend,
    ServiceBackend,
    SQLiteBackend,
)
from repro.experiments.cache import CellCache
from repro.experiments.parallel import CellSpec, run_cells
from repro.metrics.io import result_to_dict

BACKEND_KINDS = ("dir", "memory", "sqlite", "http")


def make_backend(kind, tmp_path):
    if kind == "dir":
        return DirectoryBackend(tmp_path / "cells")
    if kind == "memory":
        return MemoryBackend()
    if kind == "http":
        from repro.experiments.service import CellServer

        server = CellServer().start()
        backend = ServiceBackend(server.url)
        backend._test_server = server  # for close_backend
        return backend
    return SQLiteBackend(tmp_path / "cells.sqlite")


def close_backend(backend) -> None:
    """Release a test backend's resources (no-op where there are none)."""
    close = getattr(backend, "close", None)
    if close is not None:
        close()
    server = getattr(backend, "_test_server", None)
    if server is not None:
        server.stop()


@pytest.fixture(params=BACKEND_KINDS)
def backend(request, tmp_path):
    b = make_backend(request.param, tmp_path)
    yield b
    close_backend(b)


# ----------------------------------------------------------------------
# storage contract
# ----------------------------------------------------------------------
def test_get_put_roundtrip(backend):
    assert backend.get("k1") is None
    backend.put("k1", "hello")
    backend.put("k2", "world")
    assert backend.get("k1") == "hello"
    assert len(backend) == 2
    assert sorted(backend.keys()) == ["k1", "k2"]


def test_put_is_last_wins(backend):
    backend.put("k", "old")
    backend.put("k", "new")
    assert backend.get("k") == "new"
    assert len(backend) == 1


# ----------------------------------------------------------------------
# lease contract (what work stealing is built on)
# ----------------------------------------------------------------------
def test_claim_excludes_live_foreign_leases(backend):
    assert backend.claim("k", "alice", ttl=60.0)
    assert not backend.claim("k", "bob", ttl=60.0)
    # re-claiming your own lease refreshes it
    assert backend.claim("k", "alice", ttl=60.0)


def test_expired_lease_is_stolen(backend):
    assert backend.claim("k", "crashed-worker", ttl=0.05)
    time.sleep(0.06)
    assert backend.claim("k", "survivor", ttl=60.0)
    # ...and the takeover is exclusive again
    assert not backend.claim("k", "third", ttl=60.0)


def test_release_frees_only_own_lease(backend):
    assert backend.claim("k", "alice", ttl=60.0)
    backend.release("k", "bob")  # not the holder: no-op
    assert not backend.claim("k", "carol", ttl=60.0)
    backend.release("k", "alice")
    assert backend.claim("k", "carol", ttl=60.0)


def test_leases_do_not_count_as_cells(backend):
    backend.claim("k", "alice", ttl=60.0)
    assert len(backend) == 0
    assert backend.get("k") is None


def test_renew_extends_only_a_live_own_lease(backend):
    assert backend.claim("k", "alice", ttl=60.0)
    assert backend.renew("k", "alice", ttl=120.0)
    # not the holder -> refused, and the holder's lease is untouched
    assert not backend.renew("k", "bob", ttl=120.0)
    assert not backend.claim("k", "bob", ttl=60.0)
    # never leased at all -> refused (renew must not create leases)
    assert not backend.renew("other", "alice", ttl=60.0)
    assert len(backend) == 0


def test_renew_racing_expiry_refuses(backend):
    """A lease that expired is NOT renewable — the slow worker must
    re-claim (which can fail), so it learns a peer may already be
    recomputing its cell instead of silently extending a lease it no
    longer holds."""
    assert backend.claim("k", "slow-worker", ttl=0.05)
    time.sleep(0.06)
    assert not backend.renew("k", "slow-worker", ttl=60.0)
    # ...and after a peer steals the expired lease, still refused.
    assert backend.claim("k", "thief", ttl=60.0)
    assert not backend.renew("k", "slow-worker", ttl=60.0)
    assert backend.renew("k", "thief", ttl=60.0)


# ----------------------------------------------------------------------
# failure / quarantine contract (campaign-level retry relies on this)
# ----------------------------------------------------------------------
def test_record_failure_counts_across_owners(backend):
    assert backend.record_failure("k", "w1", "Traceback...\nKeyError: 'a'") == 1
    assert backend.record_failure("k", "w2", "Traceback...\nKeyError: 'a'") == 2
    records = backend.failures("k")
    assert [r["owner"] for r in records] == ["w1", "w2"]
    assert all("KeyError" in r["error"] for r in records)
    assert backend.failures("other") == []


def test_quarantined_cell_refuses_claims(backend):
    backend.record_failure("k", "w1", "boom")
    assert not backend.is_quarantined("k")
    backend.quarantine("k")
    assert backend.is_quarantined("k")
    assert not backend.claim("k", "w2", ttl=60.0)
    table = backend.quarantined()
    assert table["k"]["count"] == 1
    assert table["k"]["failures"][0]["owner"] == "w1"
    # idempotent: a second quarantine call does not duplicate the file
    backend.quarantine("k")
    assert backend.quarantined()["k"]["count"] == 1


def test_quarantine_keeps_the_first_case_file(backend):
    # "Idempotent; the recorded failures become its case file": a
    # failure reported after the quarantine must not rewrite it.
    backend.record_failure("k", "w1", "boom")
    backend.quarantine("k")
    backend.record_failure("k", "w2", "boom again")
    backend.quarantine("k")
    case = backend.quarantined()["k"]
    assert case["count"] == 1
    assert [r["owner"] for r in case["failures"]] == ["w1"]


@pytest.mark.parametrize("kind", ("dir", "memory", "sqlite"))
def test_failures_keep_insertion_order_when_the_clock_steps_back(
    kind, tmp_path, monkeypatch
):
    # "Oldest first" means recorded first: the timestamp is for humans.
    b = make_backend(kind, tmp_path)
    try:
        monkeypatch.setattr(time, "time", lambda: 2_000.0)
        b.record_failure("k", "first", "boom")
        monkeypatch.setattr(time, "time", lambda: 1_000.0)
        b.record_failure("k", "second", "boom")
        assert [r["owner"] for r in b.failures("k")] == ["first", "second"]
    finally:
        close_backend(b)


def test_quarantine_does_not_affect_other_keys(backend):
    backend.quarantine("poisoned")
    assert backend.claim("healthy", "w1", ttl=60.0)
    assert not backend.is_quarantined("healthy")


# ----------------------------------------------------------------------
# persistence across reopen (the shared-backend scenario)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ("dir", "sqlite"))
def test_reopen_sees_previous_writes(kind, tmp_path):
    first = make_backend(kind, tmp_path)
    first.put("k", "v")
    assert first.claim("lease", "alice", ttl=60.0)
    second = make_backend(kind, tmp_path)
    assert second.get("k") == "v"
    # the lease is shared state too: a second process cannot take it
    assert not second.claim("lease", "bob", ttl=60.0)


@pytest.mark.parametrize("kind", ("dir", "sqlite"))
def test_reopen_sees_failures_and_quarantine(kind, tmp_path):
    """Failure logs and quarantine marks are shared state like cells:
    a campaign relaunched tomorrow must not retry a poisoned cell."""
    first = make_backend(kind, tmp_path)
    assert first.record_failure("k", "w1", "boom") == 1
    first.quarantine("k")
    second = make_backend(kind, tmp_path)
    assert second.record_failure("other", "w2", "crash") == 1
    assert second.is_quarantined("k")
    assert second.quarantined()["k"]["count"] == 1
    assert not second.claim("k", "w2", ttl=60.0)


def test_sqlite_uses_wal(tmp_path):
    backend = SQLiteBackend(tmp_path / "cells.sqlite")
    (mode,) = backend._conn.execute("PRAGMA journal_mode").fetchone()
    assert mode == "wal"


# ----------------------------------------------------------------------
# stale tmp-file garbage collection (directory backend)
# ----------------------------------------------------------------------
def _dead_pid() -> int:
    """A pid that certainly existed and is certainly dead now."""
    proc = subprocess.Popen(["true"])
    proc.wait()
    return proc.pid


def test_open_collects_dead_writers_tmp_files(tmp_path):
    root = tmp_path / "cells"
    sub = root / "ab"
    sub.mkdir(parents=True)
    stale = sub / f"deadbeef.tmp.{_dead_pid()}"
    stale.write_text("{ partial")
    two_minutes_ago = time.time() - 120
    os.utime(stale, (two_minutes_ago, two_minutes_ago))
    # a live writer's fresh tmp file must survive the sweep
    inflight = sub / f"cafef00d.tmp.{os.getpid()}"
    inflight.write_text("{ in-flight")

    DirectoryBackend(root)  # opening the cache runs the GC

    assert not stale.exists()
    assert inflight.exists()


def test_open_collects_ancient_tmp_files_regardless_of_pid(tmp_path):
    """Cross-host NFS writers have no local pid; age catches them."""
    root = tmp_path / "cells"
    sub = root / "cd"
    sub.mkdir(parents=True)
    ancient = sub / f"feedface.tmp.{os.getpid()}"  # pid alive, file ancient
    ancient.write_text("{ abandoned")
    two_hours_ago = time.time() - 7200
    os.utime(ancient, (two_hours_ago, two_hours_ago))

    DirectoryBackend(root)

    assert not ancient.exists()


def test_open_collects_long_expired_lease_files(tmp_path):
    """Crashed stealing workers leave .lease files behind; opening
    the cache reaps leases whose expiry is long past (live and
    recently expired ones — still steal-relevant — survive)."""
    root = tmp_path / "cells"
    backend = DirectoryBackend(root)
    assert backend.claim("livekey", "alice", ttl=3600.0)
    ancient = root / ".leases" / "crashedkey.lease"
    ancient.write_text(
        json.dumps({"owner": "ghost", "expires": time.time() - 7200})
    )

    DirectoryBackend(root)

    assert not ancient.exists()
    assert (root / ".leases" / "livekey.lease").exists()


def test_gc_leaves_cells_and_leases_alone(tmp_path):
    root = tmp_path / "cells"
    backend = DirectoryBackend(root)
    backend.put("aabbcc", json.dumps({"v": 1}))
    backend.claim("aabbcc", "alice", ttl=60.0)
    reopened = DirectoryBackend(root)
    assert reopened.get("aabbcc") == json.dumps({"v": 1})
    assert not reopened.claim("aabbcc", "bob", ttl=60.0)


@pytest.mark.parametrize("key", ["../escaped", "a/b", ".leases", ".", ""])
def test_directory_key_must_be_one_path_component(tmp_path, key):
    """Where a key becomes a path — whatever sits in front of the
    store — it cannot leave the root or land in a record table."""
    backend = DirectoryBackend(tmp_path / "deep" / "cells")
    for call in (
        lambda: backend.put(key, "v"),
        lambda: backend.get(key),
        lambda: backend.claim(key, "w", ttl=60.0),
        lambda: backend.record_failure(key, "w", "boom"),
    ):
        with pytest.raises(ValueError, match="single path component"):
            call()
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def test_directory_lease_appears_complete_and_leaves_no_tmp(tmp_path):
    """A lease is linked into place with its payload — a peer never
    reads a half-made one (an empty file used to read as garbage and
    be stolen) — and granted, refused and takeover claims all clean
    up the temp file they were written to."""
    backend = DirectoryBackend(tmp_path / "cells")
    leases = backend.root / ".leases"
    assert backend.claim("k", "alice", ttl=60.0)
    assert json.loads((leases / "k.lease").read_text())["owner"] == "alice"
    assert not backend.claim("k", "bob", ttl=60.0)  # refused
    assert backend.claim("k", "alice", ttl=60.0)  # own lease: takeover
    assert sorted(path.name for path in leases.iterdir()) == ["k.lease"]


# ----------------------------------------------------------------------
# CellCache façade over every backend
# ----------------------------------------------------------------------
def _spec(seed=0):
    return CellSpec("rcv", 4, seed, ("burst", 1))


@pytest.mark.parametrize("kind", BACKEND_KINDS)
def test_cell_cache_roundtrip_over_any_backend(kind, tmp_path):
    cache = CellCache(backend=make_backend(kind, tmp_path))
    spec = _spec()
    [fresh] = run_cells([spec], max_workers=1)
    cache.put(spec, fresh)
    assert result_to_dict(cache.get(spec)) == result_to_dict(fresh)
    assert len(cache) == 1
    assert cache.hits == 1 and cache.writes == 1


@pytest.mark.parametrize("kind", BACKEND_KINDS)
def test_peek_leaves_counters_alone(kind, tmp_path):
    cache = CellCache(backend=make_backend(kind, tmp_path))
    spec = _spec()
    assert cache.peek(spec) is None
    [fresh] = run_cells([spec], max_workers=1, cache=cache)
    cache.hits = cache.misses = 0
    assert result_to_dict(cache.peek(spec)) == result_to_dict(fresh)
    assert cache.hits == 0 and cache.misses == 0


@pytest.mark.parametrize("kind", BACKEND_KINDS)
def test_faulty_cell_never_aliases_its_clean_twin(kind, tmp_path):
    """A fault spec is part of the cell's identity: a committed clean
    result must never be served for the faulty twin (or vice versa),
    on any backend — while a *no-op* fault spec IS the clean cell and
    shares its entry."""
    backend = make_backend(kind, tmp_path)
    try:
        cache = CellCache(backend=backend)
        clean = _spec()
        faulty = replace(clean, faults=(("drop", 0.05),))
        assert clean.cache_key() != faulty.cache_key()
        [fresh] = run_cells([clean], max_workers=1)
        cache.put(clean, fresh)
        assert cache.peek(faulty) is None
        assert result_to_dict(cache.peek(clean)) == result_to_dict(fresh)
        noop = replace(clean, faults=(("drop", 0.0), ("crash", ())))
        assert noop.cache_key() == clean.cache_key()
        assert result_to_dict(cache.peek(noop)) == result_to_dict(fresh)
    finally:
        close_backend(backend)


# ----------------------------------------------------------------------
# the stealing loop's request budget (every backend call may be a
# network round trip, so the scheduler owes each backend a bound)
# ----------------------------------------------------------------------
class CountingBackend:
    """Forwards to ``inner``, counting calls by method name."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted

    def __len__(self) -> int:
        return len(self.inner)


@pytest.mark.parametrize("n", (8, 32))
def test_stolen_slice_costs_a_linear_number_of_requests(backend, n):
    """One read in the pre-pass and one more under the lease, when a
    round reaches the cell; one claim, put and release each.  The loop
    used to re-read every pending cell every round: n=8 at
    chunk_size=2 made 28 gets, n=32 made 304."""
    counting = CountingBackend(backend)
    cache = CellCache(backend=counting)
    specs = [_spec(seed) for seed in range(n)]
    results = run_cells(
        specs, max_workers=1, cache=cache, steal=True, chunk_size=2, owner="w"
    )
    assert all(result is not None for result in results)
    calls = counting.calls
    assert calls["get"] <= 2 * n
    assert (calls["claim"], calls["put"], calls["release"]) == (n, n, n)
    assert (cache.hits, cache.misses, cache.writes) == (0, n, n)


def _peer_handle(backend):
    """A second worker's own handle on the same shared state."""
    if isinstance(backend, ServiceBackend):
        return ServiceBackend(backend.url)  # one connection per worker
    if isinstance(backend, SQLiteBackend):
        return SQLiteBackend(backend.path)
    if isinstance(backend, DirectoryBackend):
        return DirectoryBackend(backend.root)
    return backend  # memory: shared by reference


def test_two_concurrent_owners_each_compute_or_adopt_every_cell(backend):
    """Whatever the interleaving, each owner ends with every result,
    and got each cell exactly one way — computed (one miss, one write)
    or adopted from the peer (one hit) — and no cell is computed by
    both: a worker reads a cell only under its own lease, and a peer
    commits before it releases."""
    specs = [_spec(seed) for seed in range(12)]
    reference = [result_to_dict(r) for r in run_cells(specs, max_workers=1)]
    peer = _peer_handle(backend)
    caches = [CellCache(backend=backend), CellCache(backend=peer)]
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = [
                pool.submit(
                    run_cells,
                    specs,
                    max_workers=1,
                    cache=cache,
                    steal=True,
                    chunk_size=2,
                    owner=f"worker-{index}",
                    poll_interval=0.005,
                    steal_timeout=60.0,
                )
                for index, cache in enumerate(caches)
            ]
            for run in runs:
                got = run.result(timeout=120)
                assert [result_to_dict(r) for r in got] == reference
    finally:
        if peer is not backend:
            close_backend(peer)
    for cache in caches:
        assert cache.hits + cache.writes == len(specs)
        assert cache.misses == cache.writes
    # ...and the leases made it exactly once across the two
    assert sum(cache.writes for cache in caches) == len(specs)


def test_path_for_requires_a_directory_backend(tmp_path):
    cache = CellCache(backend=MemoryBackend())
    with pytest.raises(TypeError, match="individual files"):
        cache.path_for(_spec())


def test_cell_cache_wants_exactly_one_of_root_or_backend(tmp_path):
    with pytest.raises(TypeError, match="exactly one"):
        CellCache()
    with pytest.raises(TypeError, match="exactly one"):
        CellCache(tmp_path, backend=MemoryBackend())


def test_memory_backend_leases_survive_wall_clock_jumps(monkeypatch):
    # Same regression class as the cell service: in-process lease
    # expiry must not move when the wall clock steps.
    import time

    backend = MemoryBackend()
    assert backend.claim("k", "alice", ttl=30.0)
    monkeypatch.setattr(time, "time", lambda: 4e12)
    assert not backend.claim("k", "bob", ttl=30.0)
    assert backend.renew("k", "alice", ttl=30.0)


# ----------------------------------------------------------------------
# the atomicity the shared lease rules must keep
# ----------------------------------------------------------------------
def _race(calls):
    """Run ``calls`` on one thread each, released together; their
    results in order (an exception in any is raised here)."""
    barrier = threading.Barrier(len(calls))

    def run(call):
        barrier.wait(timeout=30)
        return call()

    with ThreadPoolExecutor(max_workers=len(calls)) as pool:
        futures = [pool.submit(run, call) for call in calls]
        return [future.result(timeout=60) for future in futures]


@pytest.mark.parametrize(
    "kind, takeover", [("sqlite", True), ("memory", True), ("dir", False)]
)
def test_racing_claimants_have_exactly_one_winner(kind, takeover, tmp_path):
    """K claimants racing for one key — each through its *own* handle,
    so for SQLite it is the database's locking that arbitrates, not a
    Python lock — produce one winner, every round.  ``takeover``: the
    key carries a crashed peer's expired lease.  (A directory takeover
    is a read-then-replace two survivors can both win: documented, so
    only its fresh claim is held to this.)"""
    first = make_backend(kind, tmp_path)
    handles = [first] + [_peer_handle(first) for _ in range(4)]
    try:
        for round_no in range(60):
            key = f"cell-{round_no}"
            if takeover:
                assert first.claim(key, "crashed", ttl=-1.0)  # expired on arrival
            granted = _race(
                [
                    partial(handle.claim, key, f"survivor-{index}", 60.0)
                    for index, handle in enumerate(handles)
                ]
            )
            assert granted.count(True) == 1, (round_no, granted)
    finally:
        for handle in handles:
            close_backend(handle)


@pytest.fixture
def eager_thread_switches():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


def test_same_key_threads_put_whole_values(tmp_path, eager_thread_switches):
    """Two threads of one process writing one key used to share the
    temp name ``.tmp.<pid>``: one's ``os.replace`` took the other's
    file away (``FileNotFoundError``), or landed a torn document."""
    backend = DirectoryBackend(tmp_path / "cells")
    values = ("a" * 2048, "b" * 2048)

    def writer(value):
        for _ in range(3000):
            backend.put("k", value)
            assert backend.get("k") in values

    _race([partial(writer, value) for value in values])
    assert backend.get("k") in values
    assert list(backend.root.rglob("*.tmp.*")) == []


def test_same_key_threads_record_every_failure(tmp_path, eager_thread_switches):
    backend = DirectoryBackend(tmp_path / "cells")

    def reporter(owner):
        return [backend.record_failure("k", owner, "boom") for _ in range(500)]

    counts = _race([partial(reporter, owner) for owner in ("w1", "w2")])
    assert sorted(counts[0] + counts[1]) == list(range(1, 1001))
    assert len(backend.failures("k")) == 1000
    assert list(backend.root.rglob("*.tmp.*")) == []


# ----------------------------------------------------------------------
# caches written before the rules were shared still open
# ----------------------------------------------------------------------
WRITTEN_BY_PR17 = Path(__file__).parent / "data" / "cache_written_by_pr17"


@pytest.fixture
def pr17_cache(tmp_path):
    """A scratch copy of ``data/cache_written_by_pr17`` — a directory
    cache and a SQLite file holding two committed cells, one failure
    log, one quarantine case file and one expired lease, written at
    PR 17 (the parent of the shared lease rules) by::

        specs = [CellSpec("rcv", 4, seed, ("burst", 1)) for seed in (0, 1)]
        results = run_cells(specs, max_workers=1)
        for backend in (DirectoryBackend(out / "cells"),
                        SQLiteBackend(out / "cells.sqlite")):
            cache = CellCache(backend=backend)
            for spec, result in zip(specs, results):
                cache.put(spec, result)
            backend.record_failure("poisoned", "w1", "Traceback...\\nKeyError: 'a'")
            backend.quarantine("poisoned")
            backend.claim("crashed", "ghost", ttl=-7200.0)
            getattr(backend, "close", lambda: None)()
    """
    shutil.copytree(WRITTEN_BY_PR17, tmp_path / "cache")
    return tmp_path / "cache"


def _serves_the_pr17_cells(backend):
    specs = [_spec(seed) for seed in (0, 1)]
    stored = {
        path.stem: path.read_text()
        for path in (WRITTEN_BY_PR17 / "cells").glob("*/*.json")
    }
    assert sorted(backend.keys()) == sorted(stored)
    assert {key: backend.get(key) for key in stored} == stored
    cache = CellCache(backend=backend)
    fresh = run_cells(specs, max_workers=1)
    assert [result_to_dict(cache.get(spec)) for spec in specs] == [
        result_to_dict(result) for result in fresh
    ]


def test_directory_cache_written_by_pr17_still_opens(pr17_cache):
    root = pr17_cache / "cells"
    case_file = root / ".quarantine" / "poisoned.quarantine"
    log_file = root / ".failures" / "poisoned.failures"
    case_text, log_text = case_file.read_text(), log_file.read_text()

    backend = DirectoryBackend(root)
    _serves_the_pr17_cells(backend)
    # the record files are read as they are...
    assert backend.failures("poisoned") == json.loads(log_text)
    assert backend.quarantined() == {"poisoned": json.loads(case_text)}
    assert backend.is_quarantined("poisoned")
    assert not backend.claim("poisoned", "w2", ttl=60.0)
    # ...the lease, two hours expired when written, was reaped on open...
    assert not (root / ".leases" / "crashed.lease").exists()
    # ...and what is written next has the bytes PR 17 would have written
    assert backend.claim("crashed", "survivor", ttl=60.0)
    lease_text = (root / ".leases" / "crashed.lease").read_text()
    lease = json.loads(lease_text)
    assert list(lease) == ["owner", "expires"] and lease_text == json.dumps(lease)
    assert backend.record_failure("poisoned", "w2", "boom again") == 2
    assert log_file.read_text() == json.dumps(backend.failures("poisoned"), indent=1)
    backend.quarantine("poisoned")
    assert case_file.read_text() == case_text


def test_sqlite_cache_written_by_pr17_still_opens(pr17_cache):
    """The ``cells`` table is served as is.  PR 17's ``leases``,
    ``failures`` and ``quarantine`` rows are ignored (records live in
    one ``records`` table now — docs/operations.md): a poisoned cell
    is claimable again and re-quarantines after its next crashes."""
    backend = SQLiteBackend(pr17_cache / "cells.sqlite")
    try:
        _serves_the_pr17_cells(backend)
        assert backend.failures("poisoned") == []
        assert backend.quarantined() == {}
        assert backend.claim("poisoned", "w2", ttl=60.0)
        assert backend.claim("crashed", "survivor", ttl=60.0)
        for table in ("leases", "failures", "quarantine"):  # left alone
            (rows,) = backend._conn.execute(
                f"SELECT COUNT(*) FROM {table}"
            ).fetchone()
            assert rows == 1
        assert backend.record_failure("poisoned", "w2", "boom") == 1
        backend.quarantine("poisoned")
        assert not backend.claim("poisoned", "w3", ttl=60.0)
        # the triage recipes of docs/operations.md name tables that exist
        [(key, record)] = backend._conn.execute(
            "SELECT key, record FROM records WHERE tbl = 'quarantine'"
        ).fetchall()
        assert key == "poisoned" and json.loads(record)["count"] == 1
        backend._conn.execute(
            "DELETE FROM records WHERE tbl IN ('quarantine', 'failures')"
        )
        assert not backend.is_quarantined("poisoned")
    finally:
        backend.close()
