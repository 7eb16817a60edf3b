"""Tests for the content-addressed cell cache (resume semantics)."""

import json

import pytest

from repro.experiments.cache import CellCache
from repro.experiments.parallel import CellSpec, run_cells
from repro.metrics.io import FORMAT_VERSION, result_to_dict
from test_backends import make_backend


def _spec(seed=0, **kw):
    kw.setdefault("workload", ("burst", 1))
    return CellSpec("rcv", 4, seed, **kw)


def test_put_get_roundtrip_bit_for_bit(tmp_path):
    cache = CellCache(tmp_path)
    spec = _spec()
    [fresh] = run_cells([spec], max_workers=1)
    cache.put(spec, fresh)
    loaded = cache.get(spec)
    assert result_to_dict(loaded) == result_to_dict(fresh)
    assert len(cache) == 1


def test_get_missing_returns_none(tmp_path):
    cache = CellCache(tmp_path)
    assert cache.get(_spec()) is None
    assert cache.misses == 1 and cache.hits == 0


def test_key_is_content_addressed(tmp_path):
    cache = CellCache(tmp_path)
    [r] = run_cells([_spec(seed=0)], max_workers=1)
    cache.put(_spec(seed=0), r)
    # A different cell (different seed) does not alias it.
    assert cache.get(_spec(seed=1)) is None
    # The same cell written in non-canonical form does.
    assert cache.get(_spec(seed=0, delay=("constant", 5))) is not None


def test_resume_computes_only_missing_cells(tmp_path):
    cache = CellCache(tmp_path)
    specs = [_spec(seed=s) for s in range(4)]
    run_cells(specs[:2], max_workers=1, cache=cache)
    assert len(cache) == 2

    cache.hits = cache.misses = 0
    results = run_cells(specs, max_workers=1, cache=cache)
    assert cache.hits == 2 and cache.misses == 2
    assert len(cache) == 4
    assert all(r is not None for r in results)


def test_unparseable_cell_is_recomputed(tmp_path):
    cache = CellCache(tmp_path)
    spec = _spec()
    [r] = run_cells([spec], max_workers=1, cache=cache)
    path = cache.path_for(spec)
    path.write_text("{ not json")
    assert cache.get(spec) is None  # treated as absent...
    [again] = run_cells([spec], max_workers=1, cache=cache)
    assert result_to_dict(again) == result_to_dict(r)
    assert cache.get(spec) is not None  # ...and rewritten


def test_truncated_cell_is_a_miss_and_recomputed(tmp_path):
    """A cell truncated by external interference (the JSON cuts off
    mid-document) is treated as absent, not a crash."""
    cache = CellCache(tmp_path)
    spec = _spec()
    [r] = run_cells([spec], max_workers=1, cache=cache)
    path = cache.path_for(spec)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    cache.hits = cache.misses = 0
    assert cache.get(spec) is None
    assert cache.misses == 1 and cache.hits == 0
    [again] = run_cells([spec], max_workers=1, cache=cache)
    assert result_to_dict(again) == result_to_dict(r)


def test_version_mismatch_fails_loudly(tmp_path):
    cache = CellCache(tmp_path)
    spec = _spec()
    [r] = run_cells([spec], max_workers=1, cache=cache)
    path = cache.path_for(spec)
    doc = json.loads(path.read_text())
    doc["format_version"] = FORMAT_VERSION + 999
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format_version"):
        cache.get(spec)
    # the error must name the remedy, not just the problem
    with pytest.raises(ValueError, match="new cache"):
        cache.get(spec)


def test_spec_mismatch_fails_loudly(tmp_path):
    cache = CellCache(tmp_path)
    spec = _spec()
    [r] = run_cells([spec], max_workers=1, cache=cache)
    path = cache.path_for(spec)
    doc = json.loads(path.read_text())
    doc["spec"]["seed"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="different spec"):
        cache.get(spec)


def test_stale_tmp_from_dead_writer_collected_on_open(tmp_path):
    """A worker killed between write_text and os.replace used to
    leave ``*.tmp.<pid>`` files behind forever; opening the cache now
    garbage-collects them (dead writer pid + past the grace period)."""
    import os
    import subprocess
    import time

    cache = CellCache(tmp_path)
    spec = _spec()
    [r] = run_cells([spec], max_workers=1, cache=cache)
    dead = subprocess.Popen(["true"])
    dead.wait()
    orphan = cache.path_for(spec).with_suffix(f".tmp.{dead.pid}")
    orphan.parent.mkdir(parents=True, exist_ok=True)
    orphan.write_text('{"format_version": 1, "sp')  # killed mid-write
    stale_time = time.time() - 120
    os.utime(orphan, (stale_time, stale_time))

    reopened = CellCache(tmp_path)
    assert not orphan.exists()
    # the committed cell is untouched
    assert result_to_dict(reopened.get(spec)) == result_to_dict(r)


def test_no_tmp_files_left_behind(tmp_path):
    cache = CellCache(tmp_path)
    specs = [_spec(seed=s) for s in range(3)]
    run_cells(specs, max_workers=1, cache=cache)
    leftovers = [p for p in tmp_path.rglob("*") if ".tmp" in p.name]
    assert leftovers == []


def test_progress_reporter_counts(tmp_path, capsys):
    from repro.experiments.parallel import ProgressReporter

    specs = [_spec(seed=s) for s in range(3)]
    reporter = ProgressReporter(len(specs), min_interval=0.0)
    run_cells(specs, max_workers=1, progress=reporter)
    assert reporter.done == len(specs)
    err = capsys.readouterr().err
    assert "3/3 cells" in err and "100%" in err


def test_eta_is_based_on_fresh_cells_only(capsys):
    """A resumed campaign loads cached cells at t≈0; the ETA for the
    fresh remainder must come from fresh-cell throughput (elapsed /
    done over all cells used to promise a wildly optimistic finish)."""
    from repro.experiments.parallel import ProgressReporter

    clock = {"now": 0.0}
    reporter = ProgressReporter(
        4, min_interval=0.0, clock=lambda: clock["now"]
    )
    reporter.step(2, fresh=False)  # cache-resumed, instantaneous
    clock["now"] = 10.0
    reporter.step()  # first fresh cell: 10s
    line = capsys.readouterr().err.splitlines()[-1]
    # 1 fresh cell in 10s, 1 cell to go -> 10s (not 10/3 * 1 = 3s)
    assert "ETA 10s" in line


def test_no_eta_before_the_first_fresh_cell(capsys):
    from repro.experiments.parallel import ProgressReporter

    reporter = ProgressReporter(4, min_interval=0.0)
    reporter.step(2, fresh=False)
    assert "ETA" not in capsys.readouterr().err


# ----------------------------------------------------------------------
# backend infrastructure failures surface typed, with a remedy
# ----------------------------------------------------------------------
class _FlakyBackend:
    """A backend whose storage layer dies mid-campaign."""

    def __init__(self, exc):
        self.exc = exc
        self.root = "/mnt/gone"

    def get(self, key):
        raise self.exc

    def put(self, key, value):
        raise self.exc

    def claim(self, key, owner, ttl):
        raise self.exc

    def release(self, key, owner):
        raise self.exc

    def record_failure(self, key, owner, error):
        raise self.exc

    def quarantine(self, key):
        raise self.exc

    def is_quarantined(self, key):
        raise self.exc

    def quarantined(self):
        raise self.exc

    def keys(self):
        return iter(())

    def __len__(self):
        return 0


@pytest.mark.parametrize(
    "exc",
    [ConnectionRefusedError(111, "refused"), PermissionError(13, "denied")],
    ids=["connection-refused", "permission"],
)
def test_backend_oserrors_surface_as_backend_unavailable(exc):
    """A connection refused (or a vanished mount) mid-campaign must
    not escape as a bare OSError from deep inside the façade: the
    typed error names the backend and the remedy."""
    from repro.experiments.backends import BackendUnavailableError

    cache = CellCache(backend=_FlakyBackend(exc))
    for op in [
        lambda: cache.get(_spec()),
        lambda: cache.peek(_spec()),
        lambda: cache.claim(_spec(), "w", 60.0),
        lambda: cache.release(_spec(), "w"),
        lambda: cache.record_failure(_spec(), "w", "boom"),
        lambda: cache.quarantine(_spec()),
        lambda: cache.quarantined(),
    ]:
        with pytest.raises(BackendUnavailableError) as excinfo:
            op()
        message = str(excinfo.value)
        assert "_FlakyBackend" in message  # names the backend...
        assert "/mnt/gone" in message  # ...and where it lives
        assert "re-run" in message  # ...and the remedy


def test_backend_sqlite_errors_surface_as_backend_unavailable(tmp_path):
    """A locked-out / closed database is infrastructure failure, not
    cache corruption."""
    import sqlite3

    from repro.experiments.backends import (
        BackendUnavailableError,
        SQLiteBackend,
    )

    backend = SQLiteBackend(tmp_path / "cells.sqlite")
    cache = CellCache(backend=backend)
    backend.close()  # further use raises sqlite3.ProgrammingError
    with pytest.raises(BackendUnavailableError, match="SQLiteBackend"):
        cache.get(_spec())


def test_backend_unavailable_is_not_raised_for_cell_corruption(tmp_path):
    """The boundary: corrupt *cells* keep their precise errors (the
    format/spec mismatch messages); only *infrastructure* failures
    map to BackendUnavailableError."""
    cache = CellCache(tmp_path)
    spec = _spec()
    [fresh] = run_cells([spec], max_workers=1)
    cache.put(spec, fresh)
    path = cache.path_for(spec)
    doc = json.loads(path.read_text())
    doc["format_version"] = "ancient"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format_version"):
        cache.get(spec)


# ----------------------------------------------------------------------
# a parseable but mis-shaped document is a miss on every reader
# ----------------------------------------------------------------------
def _with(**fields):
    def rewrite(doc):
        doc["result"].update(fields)
        return doc

    return rewrite


def _result(value):
    def rewrite(doc):
        doc["result"] = value
        return doc

    return rewrite


#: name -> rewrite of a good document into a mis-shaped one
MISSHAPEN = {
    "list-document": lambda doc: [1, 2],
    "null-document": lambda doc: None,
    "string-document": lambda doc: "x",
    "result-5": _result(5),
    "result-empty": _result({}),
    "records-string": _with(records="x"),
    "records-ints": _with(records=[1, 2]),
    "other-algorithm": _with(algorithm="x"),
    "other-n-nodes": _with(n_nodes=99),
    "other-seed": _with(seed=999),
}

LOCAL_MEDIA = ("memory", "dir", "sqlite")


@pytest.fixture(scope="module")
def good_document():
    [fresh] = run_cells([_spec()], max_workers=1)
    doc = {
        "format_version": FORMAT_VERSION,
        "spec": _spec().document(),
        "result": result_to_dict(fresh),
    }
    return json.dumps(doc)


def _misshapen_cache(kind, tmp_path, good_document, shape):
    backend = make_backend(kind, tmp_path)
    bad = MISSHAPEN[shape](json.loads(good_document))
    backend.put(_spec().cache_key(), json.dumps(bad))
    return CellCache(backend=backend)


@pytest.mark.parametrize("shape", sorted(MISSHAPEN))
@pytest.mark.parametrize("kind", LOCAL_MEDIA)
def test_a_misshapen_document_is_a_miss_on_get(kind, shape, tmp_path, good_document):
    cache = _misshapen_cache(kind, tmp_path, good_document, shape)
    assert cache.get(_spec()) is None
    assert (cache.hits, cache.misses) == (0, 1)


@pytest.mark.parametrize("shape", sorted(MISSHAPEN))
@pytest.mark.parametrize("kind", LOCAL_MEDIA)
def test_a_misshapen_document_is_a_miss_on_peek_and_adopt(
    kind, shape, tmp_path, good_document
):
    cache = _misshapen_cache(kind, tmp_path, good_document, shape)
    assert cache.peek(_spec()) is None
    assert cache.adopt(_spec()) is None
    assert (cache.hits, cache.misses) == (0, 0)


@pytest.mark.parametrize("shape", sorted(MISSHAPEN))
@pytest.mark.parametrize("kind", LOCAL_MEDIA)
def test_a_misshapen_document_is_recomputed_and_overwritten_on_claim(
    kind, shape, tmp_path, good_document
):
    """``run_cells`` claims the cell, finds no result in it, computes
    it and writes it over the bad document."""
    cache = _misshapen_cache(kind, tmp_path, good_document, shape)
    [again] = run_cells([_spec()], max_workers=1, cache=cache)
    assert cache.writes == 1
    want = json.loads(good_document)["result"]
    assert result_to_dict(again) == want
    assert result_to_dict(cache.get(_spec())) == want
