"""Parity: sequential vs parallel vs cached execution, bit-for-bit.

The acceptance bar for the campaign subsystem: for **every** delay
model and both workload kinds, the sequential reference path
(explicit :class:`Scenario` + ``run_scenario``), the ``run_cells``
path (sequential fallback *and* process pool), and the cell-cache
path all produce byte-identical :class:`RunResult` payloads.  A
campaign split over stealing workers, or interrupted and resumed,
must aggregate into exactly the numbers a single-process sweep would
print.
"""

import io
import json
from pathlib import Path

import pytest

from repro.experiments.cache import CellCache
from repro.experiments.figures import burst_sweep, fault_sweep, lambda_sweep
from repro.experiments.parallel import ProgressReporter, run_cells
from repro.experiments.spec import (
    AXES,
    CellSpec,
    UnrepresentableScenarioError,
)
from repro.metrics.io import result_to_dict
from repro.net.delay import (
    ConstantDelay,
    ExponentialDelay,
    JitteredDelay,
    UniformDelay,
)
from repro.workload import (
    PoissonArrivals,
    Scenario,
    run_scenario,
    uniform_cs_time,
)

DELAY_SPECS = [
    ("constant", 5.0),
    ("uniform", 2.0, 8.0),
    ("exponential", 4.0, 1.0),
    ("jittered", 5.0, 2.0),
]

WORKLOADS = [
    ("burst", 2),
    ("poisson", 25.0, 400.0),
]


def _dicts(results):
    return [result_to_dict(r) for r in results]


# ----------------------------------------------------------------------
# the headline parity matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("delay", DELAY_SPECS, ids=lambda d: d[0])
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w[0])
def test_sequential_run_cells_and_cache_agree(delay, workload, tmp_path):
    specs = [
        CellSpec("rcv", 5, seed, workload, delay=delay) for seed in (0, 1)
    ]

    # Reference: hand-built scenarios through run_scenario.
    reference = _dicts(
        run_scenario(spec.build_scenario()) for spec in specs
    )

    # run_cells, sequential fallback.
    assert _dicts(run_cells(specs, max_workers=1)) == reference

    # run_cells, process pool.
    assert _dicts(run_cells(specs, max_workers=2)) == reference

    # Cold cache (writes), then warm cache (reads only).
    cache = CellCache(tmp_path / "cells")
    assert _dicts(run_cells(specs, max_workers=1, cache=cache)) == reference
    assert cache.misses == len(specs) and cache.hits == 0
    cache.hits = cache.misses = 0
    assert _dicts(run_cells(specs, max_workers=1, cache=cache)) == reference
    assert cache.hits == len(specs) and cache.misses == 0


# one source of truth for the backend matrix: tests/test_backends.py
from test_backends import BACKEND_KINDS, close_backend, make_backend


@pytest.fixture
def make_cache(tmp_path, request):
    """Build a CellCache over any backend kind, with teardown (the
    http kind runs a live in-process CellServer)."""

    def _make(kind):
        if kind == "dir":
            cache = CellCache(tmp_path / "cells")  # historical entry point
        else:
            cache = CellCache(backend=make_backend(kind, tmp_path))
        request.addfinalizer(lambda: close_backend(cache.backend))
        return cache

    return _make


def _steal_specs():
    return [
        CellSpec("rcv", 4, seed, ("burst", 1), delay=("uniform", 3.0, 7.0))
        for seed in range(4)
    ]


class _InterruptsAfter(ProgressReporter):
    """Ctrl-C arriving while the ``commits``-th cell is reported."""

    def __init__(self, total, commits):
        super().__init__(total, stream=io.StringIO())
        self.commits = commits

    def step(self, count=1, *, fresh=True):
        super().step(count, fresh=fresh)
        if self.done >= self.commits:
            raise KeyboardInterrupt


@pytest.mark.parametrize("steal", [False, True], ids=["chunks", "steal"])
@pytest.mark.parametrize("kind", BACKEND_KINDS)
def test_interrupted_run_loses_only_the_in_flight_chunk(
    kind, steal, make_cache, capsys
):
    """An interrupt two commits into a three-cell chunk keeps exactly
    those two cells, strands no lease, and the resumed run recomputes
    only the rest — bit for bit the uncached run."""
    specs = _steal_specs()
    reference = _dicts(run_cells(specs, max_workers=1))
    cache = make_cache(kind)
    committed = 2
    with pytest.raises(KeyboardInterrupt):
        run_cells(
            specs,
            max_workers=1,
            cache=cache,
            chunk_size=3,
            steal=steal,
            owner="interrupted",
            lease_ttl=600.0,
            progress=_InterruptsAfter(len(specs), committed),
        )
    assert len(cache) == committed
    assert [cache.peek(spec) is not None for spec in specs] == [
        True, True, False, False,
    ]
    # The in-flight chunk's leases went with the interrupt: a peer
    # claims every cell now, not once the ten-minute ttl has run out.
    for spec in specs:
        assert cache.claim(spec, "peer", 600.0)
        cache.release(spec, "peer")

    cache.hits = cache.misses = cache.writes = 0
    resumed = run_cells(
        specs,
        max_workers=1,
        cache=cache,
        steal=steal,
        owner="resumed",
        steal_timeout=60.0,
        progress=True,
    )
    assert _dicts(resumed) == reference
    assert cache.hits == committed
    assert cache.misses == cache.writes == len(specs) - committed
    # progress=True sizes the reporter to the whole cell list, resumed
    # cells included
    assert "4/4 cells (100%)" in capsys.readouterr().err


# ----------------------------------------------------------------------
# work stealing: sequential = pooled = cache hit = stolen union
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", BACKEND_KINDS)
def test_work_stealing_matches_sequential(kind, tmp_path, make_cache):
    specs = _steal_specs()
    reference = _dicts(run_cells(specs, max_workers=1))
    cache = make_cache(kind)

    stolen = run_cells(
        specs,
        max_workers=1,
        cache=cache,
        steal=True,
        owner="worker-1",
        steal_timeout=60.0,
    )
    assert _dicts(stolen) == reference
    assert cache.writes == len(specs)
    # a miss is counted only for cells this worker claimed and
    # computed — under steal it must match writes exactly
    assert cache.misses == cache.writes

    # A second stealing worker arriving late adopts everything from
    # the shared backend and computes nothing.
    cache.hits = cache.misses = cache.writes = 0
    again = run_cells(
        specs,
        max_workers=1,
        cache=cache,
        steal=True,
        owner="worker-2",
        steal_timeout=60.0,
    )
    assert _dicts(again) == reference
    assert cache.hits == len(specs)
    assert cache.writes == 0
    assert cache.misses == 0  # it computed (and thus missed) nothing


def test_steal_recovers_a_crashed_peers_expired_leases(tmp_path, make_cache):
    """Cells leased by a worker that died without committing are
    re-claimed after the ttl and recomputed by the survivor."""
    specs = _steal_specs()
    reference = _dicts(run_cells(specs, max_workers=1))
    cache = make_cache("sqlite")
    for spec in specs[:2]:  # the "crashed peer" leased two cells...
        assert cache.claim(spec, "ghost", ttl=0.2)

    result = run_cells(
        specs,
        max_workers=1,
        cache=cache,
        steal=True,
        owner="survivor",
        lease_ttl=30.0,
        poll_interval=0.02,
        steal_timeout=60.0,
    )
    assert _dicts(result) == reference
    assert cache.writes == len(specs)  # ...which the survivor redid


def test_steal_requires_a_cache():
    with pytest.raises(ValueError, match="requires a cache"):
        run_cells(_steal_specs(), steal=True)


@pytest.mark.parametrize("ttl", [-5.0, 0.0, float("inf"), float("nan")])
def test_steal_refuses_a_lease_ttl_no_lease_can_have(ttl, make_cache):
    """``--lease-ttl -5`` used to make every lease born expired (each
    worker 'steals' every cell at once); the wire refuses the same
    values with a 400."""
    with pytest.raises(ValueError, match="lease_ttl must be a finite"):
        run_cells(
            _steal_specs(), cache=make_cache("memory"), steal=True, lease_ttl=ttl
        )


# ----------------------------------------------------------------------
# retry / quarantine: deterministic crashes stop ping-ponging
# ----------------------------------------------------------------------
def _poison_spec():
    # An algorithm name the registry rejects at run time: the cell
    # crashes deterministically, on every worker, every attempt.
    return CellSpec("no-such-algorithm", 4, 0, ("burst", 1))


@pytest.mark.parametrize("kind", BACKEND_KINDS)
def test_deterministically_crashing_cell_is_quarantined(kind, make_cache):
    specs = _steal_specs()[:2] + [_poison_spec()]
    cache = make_cache(kind)
    result = run_cells(
        specs,
        max_workers=1,
        cache=cache,
        steal=True,
        owner="worker-1",
        max_failures=3,
        steal_timeout=60.0,
    )
    # The healthy cells completed; the poisoned one did not hang the
    # run (pre-quarantine it would ping-pong forever) and its slot
    # stays None.
    assert [r is not None for r in result] == [True, True, False]
    assert cache.is_quarantined(specs[2])
    record = cache.quarantined()[specs[2].cache_key()]
    assert record["count"] == 3  # the whole failure budget was spent
    assert "no-such-algorithm" in record["failures"][-1]["error"]


def test_stealers_skip_quarantined_cells(make_cache):
    """A late worker adopts the healthy cells and does not retry the
    quarantined one — no new failures, no new computation."""
    specs = _steal_specs()[:2] + [_poison_spec()]
    cache = make_cache("sqlite")
    run_cells(
        specs, max_workers=1, cache=cache, steal=True,
        owner="worker-1", max_failures=2, steal_timeout=60.0,
    )
    assert cache.quarantined()[specs[2].cache_key()]["count"] == 2

    cache.hits = cache.misses = cache.writes = 0
    again = run_cells(
        specs, max_workers=1, cache=cache, steal=True,
        owner="worker-2", max_failures=2, steal_timeout=60.0,
    )
    assert [r is not None for r in again] == [True, True, False]
    assert cache.writes == 0  # nothing recomputed...
    assert cache.quarantined()[specs[2].cache_key()]["count"] == 2  # ...or retried


def test_transient_failures_are_retried_not_quarantined(make_cache):
    """A cell that fails fewer than max_failures times is retried to
    success by the same stealing run; nothing is quarantined."""
    from repro.experiments import parallel as parallel_mod

    specs = _steal_specs()[:2]
    reference = _dicts(run_cells(specs, max_workers=1))
    cache = make_cache("memory")
    flaky_key = specs[0].cache_key()
    crashes = {"left": 2}
    real = parallel_mod._run_cell

    def flaky(spec):
        if spec.cache_key() == flaky_key and crashes["left"] > 0:
            crashes["left"] -= 1
            raise RuntimeError("transient backend hiccup")
        return real(spec)

    parallel_mod._run_cell = flaky
    try:
        result = run_cells(
            specs, max_workers=1, cache=cache, steal=True,
            owner="worker-1", max_failures=3, steal_timeout=60.0,
        )
    finally:
        parallel_mod._run_cell = real
    assert _dicts(result) == reference  # bit-for-bit despite retries
    assert not cache.quarantined()
    assert len(cache.backend.failures(flaky_key)) == 2
    # the flaky cell was claimed three times but is ONE miss — the
    # steal-mode invariant misses == writes must survive retries
    assert cache.misses == cache.writes == len(specs)


def test_campaign_surfaces_quarantined_cells(tmp_path):
    """Campaign.run maps backend case files to cell indices and the
    markdown summary names the crash."""
    from repro.experiments import Campaign

    campaign = Campaign(name="quarantine-surfacing").add_sweep(
        ["rcv"], [4], [0]
    )
    campaign.cells.append(_poison_spec())
    cache = CellCache(tmp_path / "cells")
    result = campaign.run(
        max_workers=1, cache=cache, steal=True,
        owner="worker-1", steal_timeout=60.0,
    )
    assert list(result.quarantined) == [1]
    assert result.quarantined[1]["count"] == 3
    assert not result.complete
    report = result.to_markdown()
    assert "Quarantined: 1 cell(s)" in report
    assert "no-such-algorithm" in report
    with pytest.raises(ValueError, match="quarantined"):
        result.save(tmp_path / "results.json")


# ----------------------------------------------------------------------
# the sweeps reproduce the numbers of the sequential path they replaced
# ----------------------------------------------------------------------
PINNED_SWEEPS = Path(__file__).parent / "data" / "sweeps_written_by_pr12.json"
_LAMBDA_ARGS = ((5.0, 25.0), ("rcv", "ricart_agrawala"), 6, (0,), 600.0)


@pytest.mark.parametrize("max_workers", [1, 2])
def test_sweeps_reproduce_the_sequential_sweeps_of_pr12(max_workers):
    """``burst_sweep``/``lambda_sweep`` used to hand-build ``Scenario``
    objects and loop over ``run_scenario`` in-process, with
    ``parallel_*`` twins over ``run_cells``.  The data file holds what
    that sequential path produced at PR 12 — written there, before it
    was deleted, by::

        dump = lambda results: {
            a: {str(x): [result_to_dict(r) for r in runs]
                for x, runs in per_x.items()}
            for a, per_x in results.items()}
        lam = ((5.0, 25.0), ("rcv", "ricart_agrawala"), 6, (0,), 600.0)
        doc = {
            "burst": dump(burst_sweep(
                (6, 8), ("rcv", "maekawa"), (0, 1), requests_per_node=3)),
            "lambda": dump(lambda_sweep(*lam)),
            "lambda_exponential_delay": dump(lambda_sweep(
                *lam, delay_model=ExponentialDelay(4.0, 1.0))),
        }
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    and the one ``run_cells`` path must reproduce it byte for byte,
    in-process and through a two-worker pool.
    """
    burst = burst_sweep(
        (6, 8), ("rcv", "maekawa"), (0, 1),
        requests_per_node=3, max_workers=max_workers,
    )
    doc = {
        "burst": burst,
        "lambda": lambda_sweep(*_LAMBDA_ARGS, max_workers=max_workers),
        "lambda_exponential_delay": lambda_sweep(
            *_LAMBDA_ARGS,
            delay=("exponential", 4.0, 1.0),
            max_workers=max_workers,
        ),
    }
    text = json.dumps(
        {
            name: {
                algo: {str(x): _dicts(runs) for x, runs in per_x.items()}
                for algo, per_x in results.items()
            }
            for name, results in doc.items()
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    assert text + "\n" == PINNED_SWEEPS.read_text()
    # requests_per_node reaches the cells: 3 requests x 6 nodes each
    # (a twin once hardcoded the single-request burst).
    assert all(r.completed_count == 18 for r in burst["rcv"][6])


def test_theory_table_shared_results_path():
    """The §6.1 table reduces whatever burst sweep it is handed: one
    row per (algorithm, N) of the results, the same rows from a pooled
    sweep as from an in-process one."""
    from repro.experiments.figures import THEORY_REQUESTS_PER_NODE, theory_table

    def sweep(max_workers):
        return burst_sweep(
            (16, 9),
            ("rcv", "maekawa"),
            (0,),
            requests_per_node=THEORY_REQUESTS_PER_NODE,
            max_workers=max_workers,
        )

    rows = theory_table(sweep(1))
    assert [(row["algorithm"], row["n"]) for row in rows] == [
        ("rcv", 16), ("rcv", 9), ("maekawa", 16), ("maekawa", 9),
    ]
    assert rows == theory_table(sweep(2))


# ----------------------------------------------------------------------
# spec codecs: full scenario space, loud failures
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "delay, model",
    [
        (7.0, ConstantDelay(7.0)),
        (("uniform", 2, 8), UniformDelay(2.0, 8.0)),
        (("exponential", 4.0, 1.0), ExponentialDelay(4.0, minimum=1.0)),
        (("jittered", 5.0, 2.0), JitteredDelay(5.0, 2.0)),
    ],
    ids=["ConstantDelay", "UniformDelay", "ExponentialDelay", "JitteredDelay"],
)
def test_delay_spec_roundtrip(delay, model):
    built = CellSpec("rcv", 3, 0, ("burst", 1), delay=delay).build_scenario()
    assert type(built.delay_model) is type(model)
    assert repr(built.delay_model) == repr(model)


def test_delay_model_no_longer_silently_downgraded():
    """The old CellSpec ran every cell with ConstantDelay(5) no
    matter what the sweep asked for; specs now carry the model."""
    spec = CellSpec("rcv", 5, 0, ("burst", 1), delay=("uniform", 2.0, 8.0))
    model = spec.build_scenario().delay_model
    assert isinstance(model, UniformDelay)
    assert (model.low, model.high) == (2.0, 8.0)


def test_unrepresentable_delay_model_raises():
    for delay in (
        ("matrix", lambda s, d: 1.0),
        ("jittered", lambda s, d: 5.0, 1.0),  # per-pair base
    ):
        with pytest.raises(UnrepresentableScenarioError, match="delay"):
            CellSpec("rcv", 3, 0, ("burst", 1), delay=delay).normalized()


def test_unknown_spec_kinds_raise():
    with pytest.raises(UnrepresentableScenarioError):
        CellSpec("rcv", 3, 0, ("burst", 1), delay=("bogus", 1.0)).normalized()
    with pytest.raises(UnrepresentableScenarioError):
        CellSpec("rcv", 3, 0, ("burst", 1), cs_time=("jittered", 1.0, 2.0)).normalized()
    with pytest.raises(UnrepresentableScenarioError):
        CellSpec(
            "rcv", 3, 0, ("burst", 1), faults=(("cosmic-ray", 0.5),)
        ).normalized()


def test_faulty_cells_run_identically_across_paths(tmp_path):
    """The full parity bar holds for faulty cells too: sequential
    reference == run_cells (sequential and pooled) == cache round
    trip.  Dup/reorder faults lose no information, so the default
    require-completion contract still applies."""
    specs = [
        CellSpec(
            "rcv",
            5,
            seed,
            ("burst", 2),
            faults=(("dup", 0.2), ("reorder", 5.0)),
        )
        for seed in (0, 1)
    ]
    reference = _dicts(
        run_scenario(spec.build_scenario()) for spec in specs
    )
    assert _dicts(run_cells(specs, max_workers=1)) == reference
    assert _dicts(run_cells(specs, max_workers=2)) == reference
    cache = CellCache(tmp_path / "cells")
    assert _dicts(run_cells(specs, max_workers=1, cache=cache)) == reference
    cache.hits = cache.misses = 0
    assert _dicts(run_cells(specs, max_workers=1, cache=cache)) == reference
    assert cache.hits == len(specs) and cache.misses == 0


# ----------------------------------------------------------------------
# the one completion rule: clean cells must complete, faulted cells
# that strand are results
# ----------------------------------------------------------------------
def _stranding_fault_spec():
    return CellSpec("rcv", 6, 0, ("burst", 1), faults=(("drop", 0.9),))


def _stranding_clean_spec():
    # no fault anywhere: the drain deadline (3x the horizon) cuts the
    # queue of 60-unit critical sections short
    return CellSpec("rcv", 6, 0, ("poisson", 5.0, 40.0), cs_time=60.0)


@pytest.mark.parametrize("steal", [False, True])
@pytest.mark.parametrize("kind", BACKEND_KINDS)
def test_faulted_cell_that_strands_comes_back_once(kind, steal, make_cache):
    spec = _stranding_fault_spec()
    reference = run_scenario(spec.build_scenario(), require_completion=False)
    assert reference.completed_count < reference.issued_count
    cache = make_cache(kind)
    (result,) = run_cells(
        [spec], max_workers=1, cache=cache, steal=steal, owner="worker-1"
    )
    assert result_to_dict(result) == result_to_dict(reference)
    assert cache.writes == 1  # computed once, not once per retry
    assert cache.backend.failures(spec.cache_key()) == []
    assert not cache.quarantined()
    # ...and the stranded result is served from the cache like any other
    (again,) = run_cells([spec], max_workers=1, cache=cache)
    assert result_to_dict(again) == result_to_dict(reference)
    assert cache.writes == 1


def test_clean_cell_that_strands_still_raises(make_cache):
    from dataclasses import replace

    from repro.workload.runner import IncompleteRunError

    spec = _stranding_clean_spec()
    with pytest.raises(IncompleteRunError, match="liveness failure"):
        run_cells([spec], max_workers=1)
    cache = make_cache("memory")
    with pytest.raises(IncompleteRunError):
        run_cells([spec], max_workers=1, cache=cache)
    assert cache.writes == 0  # a liveness bug is never cached as a result
    # a no-op fault spec IS the clean cell, so it is just as loud
    noop = replace(spec, faults=(("drop", 0.0),))
    with pytest.raises(IncompleteRunError):
        run_cells([noop], max_workers=1)


def test_clean_cell_that_strands_is_quarantined_under_steal(make_cache):
    spec = _stranding_clean_spec()
    cache = make_cache("sqlite")
    (result,) = run_cells(
        [spec], max_workers=1, cache=cache, steal=True, owner="worker-1",
        max_failures=2, steal_timeout=60.0,
    )
    assert result is None and cache.writes == 0
    record = cache.quarantined()[spec.cache_key()]
    assert record["count"] == 2
    assert "liveness failure" in record["failures"][-1]["error"]


# ----------------------------------------------------------------------
# fault_sweep is a sweep like the others: cell_grid -> run_cells
# ----------------------------------------------------------------------
_FAULT_SWEEP = dict(n_values=(6, 8), algorithms=("rcv", "maekawa"), seeds=(0, 1))
_FAULT_RETX = ("retx", 5.0, 1.0, 100)


def _fault_sweep_dicts(sweep):
    return {
        (algo, label, n): _dicts(runs)
        for algo, per_label in sweep.items()
        for label, by_n in per_label.items()
        for n, runs in by_n.items()
    }


@pytest.mark.parametrize("retx", [(), _FAULT_RETX], ids=["bare", "retx"])
def test_fault_sweep_cells_equal_lenient_run_scenario(retx, tmp_path):
    from repro.experiments.figures import fault_grid

    cache = CellCache(tmp_path / "cells")
    sweep = fault_sweep(**_FAULT_SWEEP, retx=retx, max_workers=1, cache=cache)
    got = _fault_sweep_dicts(sweep)
    expected = {
        (algo, label, n): _dicts(
            run_scenario(
                CellSpec(
                    algo, n, seed, ("burst", 1), faults=faults, retx=retx
                ).build_scenario(),
                require_completion=False,
            )
            for seed in _FAULT_SWEEP["seeds"]
        )
        for algo in _FAULT_SWEEP["algorithms"]
        for n in _FAULT_SWEEP["n_values"]
        for label, faults in fault_grid(n)
    }
    assert got == expected
    cells = len(expected) * len(_FAULT_SWEEP["seeds"])
    assert (cache.misses, cache.writes) == (cells, cells)
    if not retx:  # the grid does measure lost liveness, as results
        assert any(
            run.completed_count < run.issued_count
            for per_label in sweep.values()
            for by_n in per_label.values()
            for runs in by_n.values()
            for run in runs
        )

    # a second call over the same cache computes nothing
    cache.hits = cache.misses = cache.writes = 0
    again = fault_sweep(**_FAULT_SWEEP, retx=retx, max_workers=1, cache=cache)
    assert _fault_sweep_dicts(again) == expected
    assert (cache.hits, cache.misses, cache.writes) == (cells, 0, 0)


def test_fault_sweep_pooled_equals_sequential():
    sequential = fault_sweep(**_FAULT_SWEEP, max_workers=1)
    pooled = fault_sweep(**_FAULT_SWEEP, max_workers=2)
    assert _fault_sweep_dicts(pooled) == _fault_sweep_dicts(sequential)
    # same nesting and order as ever: results[algo][label][n] = runs
    assert list(pooled) == ["rcv", "maekawa"]
    assert list(pooled["rcv"]["drop-10%"]) == [6, 8]


def test_poisson_mean_roundtrip_is_exact():
    """1/(1/x) is not exact for every float; the spec carries the
    mean and builds the process from it (bit-for-bit)."""
    scenario = Scenario(
        algorithm="rcv",
        n_nodes=3,
        arrivals=PoissonArrivals.from_mean_interarrival(49.0),
        issue_deadline=300.0,
        drain_deadline=900.0,
    )
    spec = CellSpec("rcv", 3, 0, ("poisson", 49, 300))
    assert spec.normalized().workload == ("poisson", 49.0, 300.0)
    rebuilt = spec.build_scenario().arrivals
    assert rebuilt.rate == scenario.arrivals.rate
    assert result_to_dict(run_scenario(spec.build_scenario())) == (
        result_to_dict(run_scenario(scenario))
    )


def test_cache_key_depends_on_results_epoch(monkeypatch):
    """Bumping the behavior epoch must invalidate every cached cell."""
    from repro.experiments import spec as spec_module

    spec = CellSpec("rcv", 5, 0, ("burst", 1))
    before = spec.cache_key()
    monkeypatch.setattr(
        spec_module, "RESULTS_EPOCH", spec_module.RESULTS_EPOCH + 1
    )
    assert spec.cache_key() != before


def test_build_scenario_matches_handwritten_all_components():
    scenario = Scenario(
        algorithm="rcv",
        n_nodes=4,
        arrivals=PoissonArrivals.from_mean_interarrival(30.0),
        seed=7,
        cs_time=uniform_cs_time(8.0, 12.0),
        delay_model=JitteredDelay(5.0, 2.0),
        issue_deadline=300.0,
        drain_deadline=900.0,
    )
    spec = CellSpec(
        "rcv",
        4,
        7,
        ("poisson", 30.0, 300.0),
        cs_time=("uniform", 8.0, 12.0),
        delay=("jittered", 5.0, 2.0),
    )
    assert result_to_dict(run_scenario(spec.build_scenario())) == (
        result_to_dict(run_scenario(scenario))
    )


@pytest.mark.parametrize(
    "cs_time",
    [
        ("constant", 10.0),
        ("uniform", 8.0, 12.0),
        ("exponential", 10.0, 2.0),
    ],
    ids=["constant", "uniform", "exponential"],
)
def test_cs_time_specs_are_exercised(cs_time):
    """Cells built from a cs-time spec draw from that distribution
    (and stay deterministic per seed)."""
    spec = CellSpec("centralized", 4, 3, ("burst", 2), cs_time=cs_time)
    a = run_scenario(spec.build_scenario())
    b = run_scenario(spec.build_scenario())
    assert result_to_dict(a) == result_to_dict(b)
    assert a.all_completed()


def test_cache_key_normalization_shares_entries():
    bare = CellSpec("rcv", 5, 0, ("burst", 1), cs_time=10.0, delay=5.0)
    tupled = CellSpec(
        "rcv", 5, 0, ("burst", 1),
        cs_time=("constant", 10), delay=("constant", 5),
    )
    assert bare.cache_key() == tupled.cache_key()
    assert bare.cache_key() != CellSpec(
        "rcv", 5, 0, ("burst", 1), delay=6.0
    ).cache_key()
