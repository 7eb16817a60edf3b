"""Scale-campaign benchmark — the N=200 wall-clock baseline.

The PR-2 protocol overhaul brought an N=200 burst down to seconds;
this bench records what the *campaign* layer built on top of it
actually delivers: wall clock for a one-seed N∈{100, 200} RCV scale
campaign (fresh), the same campaign resumed from a fully populated
cell cache (which must be orders of magnitude cheaper — it
re-simulates nothing), and the bit-for-bit equality of cached vs
fresh results.

Run as a script to (re)generate ``BENCH_campaign.json``::

    PYTHONPATH=src python benchmarks/bench_campaign.py --json BENCH_campaign.json

``test_campaign_cache_resume_smoke`` is the CI smoke: a tiny
campaign (N=6/8, 2 seeds) interrupted half-way (a
``KeyboardInterrupt`` after the second commit), resumed, and checked
cell-for-cell against the sequential reference path.
``test_campaign_work_stealing_smoke`` is its distributed twin: two
processes over one shared SQLite backend, one killed after a single
commit with cells still leased, the survivor stealing the expired
leases and finishing — union checked bit-for-bit.
``test_campaign_http_stealing_smoke`` is the shared-nothing variant:
a real ``python -m repro.cli cell-server`` subprocess, a victim worker
killed mid-campaign, and a survivor that finishes over HTTP alone.
The report additionally records what distribution buys — two stealing
workers against one on the same N∈{50, 200} cells, over a shared
SQLite file and over a served HTTP backend (null, with a note, on a
host with one usable CPU) — and the served-HTTP-vs-shared-SQLite wall
clock (what the network round trip per cell operation actually costs).

The report's first-class ``per_cell`` section tracks the cost of the
unit everything above is built from: per-cell seconds at N in
{50, 100, 200} and the N=200 speedup over the in-tree historical
protocol path, ``repro.core.reference.full_snapshot_mode()``
(``test_per_cell_n200_beats_seed`` guards the >=2x floor).

The ``faults`` section runs the canonical fault grid (drop/dup/
reorder intensities, a halving partition, a crash — see
``repro.experiments.figures.fault_grid``) at N in {50, 100, 200} for
RCV vs Maekawa and records NME, mean sync delay, and completion rate
per point — plus, for RCV, the same grid over the reliable
(ack/retransmit) channel as a ``completion_rate_retx`` column: the
completion cliff and its flattening side by side.
The grid runs through ``run_cells`` like every sweep, so the section
also records its wall clock cold on one worker, resumed from the
cache the cold run filled, and cold over a 2-process pool.
``test_campaign_fault_smoke`` is its CI twin: a tiny campaign with
one clean, one dup, one heavy-drop, and one partitioned cell — the
lossy pair strands and comes back, computed once, as results with
completion < 1, the campaign is complete and the clean results stay
untouched — plus a crashing cell, which is what still burns the
retry budget and is quarantined.
``test_campaign_fault_recovery_smoke`` is the heavy-drop cell
completing under retx (clean cells bit-for-bit untouched) and ``test_retx_completion_floor_under_drop``
guards the >= 0.99 with-retx completion floor at drop p = 0.1 for
N in {50, 100, 200}.
"""

import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments import (
    CellCache,
    CellServer,
    CellSpec,
    ServiceBackend,
    SQLiteBackend,
    fault_grid,
    fault_sweep,
    scale_campaign,
)
from repro.experiments.parallel import ProgressReporter, _usable_cpus
from repro.metrics.io import result_to_dict


# ----------------------------------------------------------------------
# CI smoke: resume + parity on a tiny campaign
# ----------------------------------------------------------------------
def test_campaign_cache_resume_smoke(tmp_path=None):
    """An interrupted campaign resumes from the cache, recomputing
    only missing cells, and cached results equal fresh ones exactly."""
    root = tmp_path or Path(tempfile.mkdtemp(prefix="campaign-smoke-"))
    cache = CellCache(root / "cells")
    campaign = scale_campaign(
        ("rcv",), n_values=(6, 8), seeds=(0, 1), requests_per_node=2
    )

    # Interrupt: Ctrl-C lands as the second cell's commit is reported,
    # leaving a partially populated cache.
    committed = 2

    class _InterruptsAfterCommits(ProgressReporter):
        def step(self, count=1, *, fresh=True):
            super().step(count, fresh=fresh)
            if self.done == committed:
                raise KeyboardInterrupt

    interrupter = _InterruptsAfterCommits(
        len(campaign.cells), stream=io.StringIO()
    )
    try:
        campaign.run(max_workers=1, cache=cache, progress=interrupter)
    except KeyboardInterrupt:
        pass
    assert len(cache) == committed < len(campaign.cells)

    # Resume: the full run must only compute the missing cells...
    cache.hits = cache.misses = 0
    resumed = campaign.run(max_workers=1, cache=cache)
    assert resumed.complete
    assert cache.hits == committed
    assert cache.misses == len(campaign.cells) - committed

    # ...and a fully cached re-run simulates nothing.
    cache.hits = cache.misses = 0
    cached = campaign.run(max_workers=1, cache=cache)
    assert cache.hits == len(campaign.cells) and cache.misses == 0

    # Bit-for-bit: cached == resumed == fresh (no cache at all).
    fresh = campaign.run(max_workers=1)
    for a, b, c in zip(cached.results, resumed.results, fresh.results):
        assert result_to_dict(a) == result_to_dict(b) == result_to_dict(c)


# ----------------------------------------------------------------------
# CI smoke: work stealing survives a killed worker
# ----------------------------------------------------------------------
_SMOKE_N_VALUES = (6, 8)
_SMOKE_SEEDS = (0, 1)
_SMOKE_RPN = 2


def _smoke_campaign():
    return scale_campaign(
        ("rcv",),
        n_values=_SMOKE_N_VALUES,
        seeds=_SMOKE_SEEDS,
        requests_per_node=_SMOKE_RPN,
    )


def _shared_backend(locator: str):
    """The shared backend a worker process opens: an ``http://`` cell
    server URL or a directory holding the shared SQLite file."""
    if locator.startswith("http://"):
        return ServiceBackend(locator)
    return SQLiteBackend(Path(locator) / "cells.sqlite")


def _victim_worker(locator: str, lease_ttl: float) -> None:
    """A stealing worker that leases every cell, commits exactly one,
    and dies — a deterministic stand-in for a worker killed mid-run
    (its remaining leases are left dangling until they expire)."""

    class _DiesAfterFirstCommit(CellCache):
        def put(self, spec, result):
            super().put(spec, result)
            os._exit(7)

    cache = _DiesAfterFirstCommit(backend=_shared_backend(locator))
    campaign = _smoke_campaign()
    campaign.run(
        max_workers=1,
        cache=cache,
        steal=True,
        owner="victim",
        lease_ttl=lease_ttl,
        chunk_size=len(campaign.cells),  # lease the whole campaign
    )


def test_campaign_work_stealing_smoke(tmp_path=None):
    """Two workers share one SQLite backend; the first is killed
    after a single commit with the other cells still leased.  The
    survivor must steal the expired leases, recompute exactly the
    missing cells, and the union must equal the sequential run."""
    root = tmp_path or Path(tempfile.mkdtemp(prefix="campaign-steal-"))
    campaign = _smoke_campaign()

    ctx = multiprocessing.get_context("fork")
    victim = ctx.Process(target=_victim_worker, args=(str(root), 1.0))
    victim.start()
    victim.join(timeout=120)
    assert victim.exitcode == 7, "victim did not die at its scripted point"

    backend = SQLiteBackend(root / "cells.sqlite")
    assert len(backend) == 1  # one commit made it; the rest dangle leased

    cache = CellCache(backend=backend)
    survivor = campaign.run(
        max_workers=1,
        cache=cache,
        steal=True,
        owner="survivor",
        lease_ttl=30.0,
        steal_timeout=120.0,
    )
    assert survivor.complete
    assert cache.hits == 1  # adopted the victim's one committed cell
    assert cache.writes == len(campaign.cells) - 1  # recomputed the rest

    fresh = campaign.run(max_workers=1)
    for stolen, reference in zip(survivor.results, fresh.results):
        assert result_to_dict(stolen) == result_to_dict(reference)


# ----------------------------------------------------------------------
# CI smoke: the shared-nothing HTTP story end to end
# ----------------------------------------------------------------------
def _spawn_cell_server_cli() -> "tuple[subprocess.Popen, str]":
    """Launch a real ``python -m repro.cli cell-server`` subprocess on
    an ephemeral port; returns (process, url) once it is serving."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "cell-server", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()  # "cell-server serving on http://..."
    url = next(
        (word for word in line.split() if word.startswith("http://")), None
    )
    assert url, f"cell-server did not announce a URL: {line!r}"
    return proc, url


def test_campaign_http_stealing_smoke(tmp_path=None):
    """The multi-host story with zero shared storage: a cell-server
    CLI subprocess, a victim worker killed after one commit over
    HTTP, and a survivor that steals the expired leases and finishes
    the union — bit-for-bit equal to the sequential run."""
    server_proc, url = _spawn_cell_server_cli()
    try:
        campaign = _smoke_campaign()
        ctx = multiprocessing.get_context("fork")
        victim = ctx.Process(target=_victim_worker, args=(url, 1.0))
        victim.start()
        victim.join(timeout=120)
        assert victim.exitcode == 7, "victim did not die at its scripted point"

        cache = CellCache(backend=ServiceBackend(url))
        assert len(cache) == 1  # one commit arrived; the rest dangle leased

        survivor = campaign.run(
            max_workers=1,
            cache=cache,
            steal=True,
            owner="survivor",
            lease_ttl=30.0,
            steal_timeout=120.0,
        )
        assert survivor.complete
        assert cache.hits == 1  # adopted the victim's one committed cell
        assert cache.writes == len(campaign.cells) - 1  # recomputed the rest

        fresh = campaign.run(max_workers=1)
        for stolen, reference in zip(survivor.results, fresh.results):
            assert result_to_dict(stolen) == result_to_dict(reference)
    finally:
        server_proc.terminate()
        server_proc.wait(timeout=30)


# ----------------------------------------------------------------------
# what distribution buys: two stealing workers vs one, same cells
# ----------------------------------------------------------------------
# Two node counts x three seeds: three light N=50 cells and three
# heavy N=200 ones, so a schedule has an imbalance to get wrong.
_TWO_WORKER_N_VALUES = (50, 200)
_TWO_WORKER_SEEDS = (0, 1, 2)


def _two_worker_campaign():
    return scale_campaign(
        ("rcv",), n_values=_TWO_WORKER_N_VALUES, seeds=_TWO_WORKER_SEEDS
    )


def _stealing_worker(locator: str, index: int) -> None:
    _two_worker_campaign().run(
        max_workers=1,
        cache=CellCache(backend=_shared_backend(locator)),
        steal=True,
        owner=f"worker-{index}",
        lease_ttl=600.0,
        chunk_size=1,  # claim one cell at a time: finest balancing
    )


def _measure_workers(count: int, transport: str):
    """Wall clock until all ``count`` stealing workers finish, plus
    the aggregated per-cell results (read back from the shared
    backend).

    ``transport="sqlite"`` shares a WAL database file (single-host);
    ``transport="http"`` shares nothing but a TCP route to an
    in-process cell server — the multi-host deployment, measured on
    one machine, so the delta over sqlite is the HTTP round-trip cost
    per cell operation.
    """
    ctx = multiprocessing.get_context("fork")
    with tempfile.TemporaryDirectory(prefix="bench-steal-") as tmp:
        server = None
        locator = tmp
        if transport == "http":
            server = CellServer().start()
            locator = server.url
        try:
            start = time.perf_counter()
            workers = [
                ctx.Process(target=_stealing_worker, args=(locator, i))
                for i in range(count)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
            wall = time.perf_counter() - start
            assert all(
                w.exitcode == 0 for w in workers
            ), f"{count}-worker/{transport} worker failed"
            cache = CellCache(backend=_shared_backend(locator))
            aggregated = _two_worker_campaign().run(max_workers=1, cache=cache)
            assert aggregated.complete
            return wall, [result_to_dict(r) for r in aggregated.results]
        finally:
            if server is not None:
                server.stop()


def _two_workers_block(transport: str, reference) -> dict:
    """One ``two_workers_*`` report block: the same cells through one
    stealing worker, then two, over ``transport``.  Two processes on
    one usable CPU time-slice it, so any schedule then costs total
    work: the ratio is recorded as null there, not as a speed-up."""
    one_wall, one_results = _measure_workers(1, transport)
    two_wall, two_results = _measure_workers(2, transport)
    assert one_results == two_results == reference, (
        f"stolen ({transport}) / sequential results diverged"
    )
    cpus = _usable_cpus()
    block = {
        "n_values": list(_TWO_WORKER_N_VALUES),
        "seeds": list(_TWO_WORKER_SEEDS),
        "usable_cpus": cpus,
        "one_worker_seconds": round(one_wall, 3),
        "two_worker_seconds": round(two_wall, 3),
        "speedup_over_one_worker": (
            round(one_wall / two_wall, 2) if cpus >= 2 else None
        ),
        "stolen_equals_sequential": True,
    }
    if cpus < 2:
        block["skipped"] = "1 usable CPU"
    return block


def _two_workers_sections() -> dict:
    """Both ``two_workers_*`` blocks.  The served one adds the wall
    clock of two HTTP workers over two SQLite workers: the
    per-operation network cost of the multi-host deployment."""
    reference = [
        result_to_dict(r)
        for r in _two_worker_campaign().run(max_workers=1).results
    ]
    sqlite = _two_workers_block("sqlite", reference)
    http = _two_workers_block("http", reference)
    http["http_over_sqlite"] = round(
        http["two_worker_seconds"] / sqlite["two_worker_seconds"], 2
    )
    return {
        "two_workers_shared_sqlite": sqlite,
        "two_workers_served_http": http,
    }


# ----------------------------------------------------------------------
# per-cell costs — the fast unit of everything
# ----------------------------------------------------------------------
_PER_CELL_N_VALUES = (50, 100, 200)
_PER_CELL_SEEDS = (0, 1, 2)


def _per_cell_seconds(n, seeds=_PER_CELL_SEEDS):
    """Mean seconds of one burst cell at node count ``n``, run the way
    the campaign workers run it: ``run_scenario(spec.build_scenario())``."""
    from repro.workload.runner import run_scenario

    specs = scale_campaign(("rcv",), n_values=(n,), seeds=seeds).cells
    start = time.perf_counter()
    for spec in specs:
        run_scenario(spec.build_scenario())
    return (time.perf_counter() - start) / len(specs)


def _full_snapshot_n200_cell_seconds():
    """One N=200 burst cell on the seed tree's protocol path as kept
    in-tree (``full_snapshot_mode()`` tracks the seed tree closely:
    4.46x vs ~4.5x at N=200), so the floor needs no git history."""
    from repro.core.reference import full_snapshot_mode

    with full_snapshot_mode():
        return _per_cell_seconds(200, seeds=(0,))


def test_per_cell_n200_beats_seed():
    """Floor guard: the N=200 burst cell must stay >=2x faster than
    the seed tree's protocol path (the full-snapshot baseline).  The
    columnar-SI + incremental-tally rework measured ~4.5x; the 2x
    floor is the ISSUE's acceptance bar and leaves ample headroom for
    noisy CI machines."""
    baseline_secs = _full_snapshot_n200_cell_seconds()
    cell_secs = _per_cell_seconds(200)
    ratio = baseline_secs / cell_secs
    print(
        f"\nN=200 cell: full-snapshot={baseline_secs:.3f}s "
        f"now={cell_secs:.3f}s speedup={ratio:.2f}x"
    )
    assert ratio > 2.0, (
        f"N=200 cell ({cell_secs:.3f}s) lost the >=2x floor over the "
        f"full-snapshot baseline ({baseline_secs:.3f}s)"
    )


def _per_cell_section():
    """The first-class ``per_cell`` report block: per-cell seconds at
    N in {50, 100, 200}, plus the N=200 speedup over the full-snapshot
    baseline."""
    section = {
        "n_values": list(_PER_CELL_N_VALUES),
        "seeds": list(_PER_CELL_SEEDS),
        "fresh_seconds": {
            str(n): round(_per_cell_seconds(n), 3) for n in _PER_CELL_N_VALUES
        },
    }
    baseline_secs = _full_snapshot_n200_cell_seconds()
    section["full_snapshot_n200_seconds"] = round(baseline_secs, 3)
    section["n200_speedup_over_full_snapshot"] = round(
        baseline_secs / section["fresh_seconds"]["200"], 2
    )
    return section


# ----------------------------------------------------------------------
# CI smoke: a faulty campaign measures lost liveness, quarantines crashes
# ----------------------------------------------------------------------
def test_campaign_fault_smoke(tmp_path=None):
    """A campaign mixing clean, liveness-preserving, and
    liveness-losing fault cells finishes complete: a faulted cell
    that strands is a result with completion < 1, computed once — not
    a failure retried three times and quarantined — and the clean
    cell is completely unaffected.  Quarantine is for crashes: a cell
    whose computation raises still burns the whole failure budget and
    lands there (see docs/faults.md)."""
    from repro.experiments import Campaign
    from repro.workload.runner import run_scenario

    root = tmp_path or Path(tempfile.mkdtemp(prefix="campaign-faults-"))
    clean = CellSpec("rcv", 6, 0, ("burst", 1))
    dup = CellSpec("rcv", 6, 0, ("burst", 1), faults=(("dup", 0.3),))
    heavy_drop = CellSpec(
        "rcv", 6, 0, ("burst", 1), faults=(("drop", 0.9),)
    )
    partition = CellSpec(
        "rcv", 6, 0, ("burst", 1), faults=(("partition", ((0.0, 40.0, 3),)),)
    )
    campaign = Campaign(name="fault-smoke")
    campaign.cells.extend([clean, dup, heavy_drop, partition])

    cache = CellCache(backend=SQLiteBackend(root / "cells.sqlite"))
    steal = dict(
        max_workers=1, cache=cache, steal=True, owner="worker-1",
        steal_timeout=120.0,
    )
    result = campaign.run(**steal)

    # No holes, nothing retried: each cell was computed exactly once.
    assert result.complete and not result.quarantined
    assert (cache.misses, cache.writes) == (4, 4)
    assert all(cache.backend.failures(c.cache_key()) == [] for c in campaign.cells)
    rates = [r.completed_count / r.issued_count for r in result.results]
    assert rates[0] == rates[1] == 1.0  # clean, dup: no information lost
    assert rates[2] < 1.0 and rates[3] < 1.0  # the measurement
    markdown = result.to_markdown()
    assert "| completion |" in markdown and "Quarantined" not in markdown
    assert f"| {sum(rates) / 4:.3f} |" in markdown

    # The clean cell's payload is exactly the no-campaign reference,
    # and a stranded one is exactly the lenient reference.
    assert result_to_dict(result.results[0]) == result_to_dict(
        run_scenario(clean.build_scenario())
    )
    assert result_to_dict(result.results[2]) == result_to_dict(
        run_scenario(heavy_drop.build_scenario(), require_completion=False)
    )

    # A cell that crashes, added to the same campaign, is still
    # quarantined after the full budget; the rest resume from cache.
    campaign.cells.append(CellSpec("no-such-algorithm", 6, 0, ("burst", 1)))
    result = campaign.run(**steal)
    assert not result.complete and cache.writes == 4
    assert [r is not None for r in result.results] == [True] * 4 + [False]
    assert sorted(result.quarantined) == [4]
    assert result.quarantined[4]["count"] == 3  # the whole failure budget
    assert "no-such-algorithm" in result.quarantined[4]["failures"][-1]["error"]


def test_campaign_fault_recovery_smoke(tmp_path=None):
    """The quarantine story inverted (see test_campaign_fault_smoke):
    the same heavy-drop cell that strands and is quarantined without
    retransmission completes under the reliable channel — no retries
    burned, nothing quarantined — while the clean cell's payload stays
    exactly the no-campaign, no-retx reference."""
    from dataclasses import replace

    from repro.experiments import Campaign
    from repro.workload.runner import run_scenario

    root = tmp_path or Path(tempfile.mkdtemp(prefix="campaign-recovery-"))
    clean = CellSpec("rcv", 6, 0, ("burst", 1))
    heavy_drop_retx = CellSpec(
        "rcv", 6, 0, ("burst", 1),
        faults=(("drop", 0.9),),
        retx=_FAULT_RETX,
    )
    campaign = Campaign(name="fault-recovery-smoke")
    campaign.cells.extend([clean, heavy_drop_retx])

    cache = CellCache(backend=SQLiteBackend(root / "cells.sqlite"))
    result = campaign.run(
        max_workers=1,
        cache=cache,
        steal=True,
        owner="worker-1",
        steal_timeout=120.0,
    )

    assert result.complete
    assert not result.quarantined
    recovered = result.results[1]
    assert recovered.all_completed()
    assert recovered.extra["net_retx_retransmits"] > 0
    assert recovered.extra["net_retx_giveups"] == 0
    # Clean cells are untouched by the new layer: bit-for-bit the
    # no-campaign reference, with no retx counters in the extras.
    reference = run_scenario(clean.build_scenario())
    assert result_to_dict(result.results[0]) == result_to_dict(reference)
    assert not any(
        key.startswith("net_retx_") for key in result.results[0].extra
    )
    # ...and the retx cell can never be served from the bare cell's
    # cache slot (or vice versa): the key covers the retx field.
    assert cache.get(replace(heavy_drop_retx, retx=())) is None


def test_retx_completion_floor_under_drop():
    """The acceptance floor: at drop p <= 0.1 the RCV-with-retx
    completion rate must stay >= 0.99 at every campaign scale (the
    same cells whose bare completion collapses to ~0 — the cliff the
    `faults` section records, flattened)."""
    from repro.workload.runner import run_scenario

    for n in _FAULT_N_VALUES:
        spec = CellSpec(
            "rcv", n, 0, ("burst", 1),
            faults=(("drop", 0.10),),
            retx=_FAULT_RETX,
        )
        result = run_scenario(
            spec.build_scenario(), require_completion=False
        )
        rate = result.completed_count / result.issued_count
        assert rate >= 0.99, (
            f"N={n}: with-retx completion {rate:.3f} fell below the "
            "0.99 floor at drop p=0.1"
        )
        assert result.extra["net_retx_giveups"] == 0


# ----------------------------------------------------------------------
# resilience grid: NME / sync delay / completion vs fault intensity
# ----------------------------------------------------------------------
_FAULT_N_VALUES = (50, 100, 200)
_FAULT_SEEDS = (0,)

#: the reliable-channel discipline of the with-retx grid columns: a
#: constant 5-unit rto with a deep retry budget, so at any grid drop
#: intensity the residual give-up probability is numerically zero and
#: the column isolates the *protocol* under recovered loss
_FAULT_RETX = ("retx", 5.0, 1.0, 100)


def _round_or_none(value, digits=3):
    """NaN-safe rounding: stranded runs have no completed CS, so NME
    and sync delay are NaN there — recorded as null in the report."""
    if value != value or math.isinf(value):
        return None
    return round(value, digits)


def _faults_section():
    """The ``faults`` report block: the canonical fault grid (clean
    baseline, two intensities each of drop/dup/reorder, a halving
    partition, a crash) at N in {50, 100, 200}, RCV vs Maekawa —
    messages per entry (NME), mean sync delay, and completion rate
    per point.  Liveness loss shows up as completion < 1 and null
    NME/sync, not as an error (the one completion rule of
    ``run_cells``: a faulted cell that strands is a result).

    The RCV rows additionally carry a ``completion_rate_retx``
    column: the identical grid re-run over the reliable
    (ack/retransmit) channel (``_FAULT_RETX``).  The bare column is
    the PR-7 cliff — message loss strands whole bursts — and the
    with-retx column is it flattened (1.0 across every drop/dup/
    reorder point), which is the fault-tolerance claim of
    docs/faults.md's "Recovery" section in one diff.

    The grid is a sweep through ``run_cells`` like any other, so its
    wall clock is recorded three ways: ``seconds`` (one worker, cold —
    comparable across PRs), ``seconds_resumed`` (the same call over
    the cache the cold run filled: nothing recomputed) and
    ``seconds_two_workers`` (cold again, over a 2-process pool; null
    on a host with one usable CPU)."""

    def _timed_sweeps(**run):
        """The bare grid (RCV vs Maekawa), then RCV's with-retx twin."""
        start = time.perf_counter()
        sweeps = (
            fault_sweep(_FAULT_N_VALUES, seeds=_FAULT_SEEDS, **run),
            fault_sweep(
                _FAULT_N_VALUES,
                algorithms=("rcv",),
                seeds=_FAULT_SEEDS,
                retx=_FAULT_RETX,
                **run,
            ),
        )
        return sweeps, time.perf_counter() - start

    def _flat(sweeps):
        return [
            result_to_dict(run)
            for sweep in sweeps
            for per_label in sweep.values()
            for by_n in per_label.values()
            for runs in by_n.values()
            for run in runs
        ]

    cpus = _usable_cpus()
    with tempfile.TemporaryDirectory(prefix="bench-faults-") as tmp:
        cache = CellCache(Path(tmp) / "cells")
        (sweep, retx_sweep), secs = _timed_sweeps(max_workers=1, cache=cache)
        resumed, resumed_secs = _timed_sweeps(max_workers=1, cache=cache)
        assert _flat(resumed) == _flat((sweep, retx_sweep))
        assert cache.writes == cache.hits == len(_flat(resumed))
        pooled_secs = None
        if cpus >= 2:
            pooled, pooled_secs = _timed_sweeps(
                max_workers=2, cache=CellCache(Path(tmp) / "pooled")
            )
            assert _flat(pooled) == _flat(resumed)

    def _completion(runs):
        issued = sum(r.issued_count for r in runs)
        completed = sum(r.completed_count for r in runs)
        return round(completed / issued, 3) if issued else None

    section = {
        "n_values": list(_FAULT_N_VALUES),
        "seeds": list(_FAULT_SEEDS),
        "grid": [label for label, _ in fault_grid(_FAULT_N_VALUES[0])],
        "retx": list(_FAULT_RETX),
        "usable_cpus": cpus,
        "seconds": round(secs, 3),
        "seconds_resumed": round(resumed_secs, 3),
        "seconds_two_workers": pooled_secs and round(pooled_secs, 3),
        "algorithms": {},
    }
    for algo, per_label in sweep.items():
        rows = {}
        for label, by_n in per_label.items():
            rows[label] = {}
            for n, runs in sorted(by_n.items()):
                point = {
                    "nme": _round_or_none(
                        sum(r.nme for r in runs) / len(runs)
                    ),
                    "sync_delay": _round_or_none(
                        sum(r.mean_sync_delay for r in runs) / len(runs)
                    ),
                    "completion_rate": _completion(runs),
                }
                if algo in retx_sweep:
                    point["completion_rate_retx"] = _completion(
                        retx_sweep[algo][label][n]
                    )
                rows[label][str(n)] = point
        section["algorithms"][algo] = rows
    return section


# ----------------------------------------------------------------------
# BENCH_campaign.json report
# ----------------------------------------------------------------------
def _timed_run(campaign, **kwargs):
    start = time.perf_counter()
    result = campaign.run(**kwargs)
    return result, time.perf_counter() - start


def build_report(n_values=(100, 200), seeds=(0,)):
    campaign = scale_campaign(("rcv",), n_values=n_values, seeds=seeds)
    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as tmp:
        cache = CellCache(Path(tmp) / "cells")
        fresh, fresh_secs = _timed_run(campaign, max_workers=1, cache=cache)
        cached, cached_secs = _timed_run(campaign, max_workers=1, cache=cache)
        identical = all(
            result_to_dict(a) == result_to_dict(b)
            for a, b in zip(fresh.results, cached.results)
        )
    assert identical, "cached campaign results diverged from fresh ones"

    return {
        "bench": (
            "bench_campaign — RCV burst scale campaign "
            f"(N {list(n_values)}, seeds {list(seeds)}), sequential worker"
        ),
        "cells": len(campaign.cells),
        # the fast unit of everything: one cell's cost, tracked
        # first-class so the perf trajectory is visible across PRs
        "per_cell": _per_cell_section(),
        # resilience: the same cells under the canonical fault grid
        "faults": _faults_section(),
        "fresh": {
            "seconds": round(fresh_secs, 3),
            "cells_per_sec": round(len(campaign.cells) / fresh_secs, 3),
        },
        "cache_resume": {
            "seconds": round(cached_secs, 3),
            "speedup_over_fresh": round(fresh_secs / cached_secs, 1),
        },
        "cached_equals_fresh": identical,
        **_two_workers_sections(),
    }


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the report to PATH (default: print to stdout)",
    )
    args = parser.parse_args(argv)
    report = build_report()
    text = json.dumps(report, indent=2) + "\n"
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
        print(f"wrote {args.json}")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
