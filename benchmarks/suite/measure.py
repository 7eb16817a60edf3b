"""Timed loops and the end-to-end metrics.

Two loop shapes, one per kind of user operation:

* **fixed list** (simulation cells, model checks) — the units run
  round-robin until ``--seconds`` have passed, every unit at least
  once;
* **campaign** — a closed loop with one client: a pass opens an empty
  cache backend, runs the slice fresh through
  ``Campaign.run(max_workers=1, steal=True)`` and then again (every
  cell resolves from the cache); passes repeat for ``--seconds`` split
  evenly over the workload's backends.

Either way a run repeats the same deterministic pieces of work many
times, spread over the whole run, and a piece's time is the *best* of
its repeats, read from the workload's clock (see ``README.md``,
"Noise discipline", for why the best, and "Clocks" for which clock).
On the CPU clock a :class:`Reference` kernel runs between the pieces,
and the times are scaled by how fast it found the machine to be.
``--seconds`` itself is always counted on the wall clock.

Everything is driven through public entry points, and every timed
body runs with the garbage collector collected beforehand and
disabled throughout.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import os
import resource
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time
from typing import Callable, Dict, List, Tuple

import repro.engine as engine
import repro.verify as verify
from repro.experiments.backends import (
    DirectoryBackend,
    MemoryBackend,
    ServiceBackend,
    SQLiteBackend,
)
from repro.experiments.cache import CellCache
from repro.experiments.campaign import Campaign
from repro.experiments.service import CellServer
from repro.metrics.io import result_to_dict

from workloads import Cell, Workload

__all__ = [
    "CLOCKS",
    "OUT_DIR",
    "Reference",
    "Sample",
    "SliceRun",
    "Tally",
    "best_passes",
    "campaign_metrics",
    "check_parity",
    "digest",
    "drop_scratch",
    "fixed_metrics",
    "make_scratch",
    "open_backend",
    "peak_rss_mb",
    "percentile",
    "run_campaign",
    "run_fixed",
    "run_slices",
    "run_unit",
    "steal_seconds",
]

OUT_DIR = Path(__file__).resolve().parent / "out"

#: a workload's ``clock``: CPU seconds of the measuring thread (which
#: the hypervisor taking the processor away does not lengthen), or
#: elapsed seconds
CLOCKS: Dict[str, Callable[[], float]] = {"cpu": thread_time, "wall": perf_counter}


def digest(result) -> str:
    """Short sha256 of a :class:`RunResult`'s canonical document."""
    text = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (the maximum when ``q`` outruns the
    sample, as it does for p95 of fewer than twenty values)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def steal_seconds() -> float:
    """Seconds, since boot, that this machine's processors were wanted
    but withheld by the hypervisor (0.0 where ``/proc/stat`` is absent)."""
    try:
        with open("/proc/stat") as stat:
            return int(stat.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Event:
    __slots__ = ("node", "kind", "payload")

    def __init__(self, node: int, kind: int, payload: tuple) -> None:
        self.node = node
        self.kind = kind
        self.payload = payload


def _reference_kernel() -> int:
    """A fixed piece of interpreter work shaped like the simulator's —
    a heap of timed events carrying small objects, handlers updating
    dicts of dicts — that calls nothing under ``src/``."""
    push, pop = heapq.heappush, heapq.heappop
    heap: list = []
    rows: Dict[int, Dict[int, tuple]] = {}
    x = 12345
    for i in range(3000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, (x % 1000 + i, 7 * i, _Event(i, x & 15, (i, x))))
    total = 0
    while heap:
        when, seq, event = pop(heap)
        row = rows.setdefault(event.kind, {})
        row[seq % 97] = event.payload
        total += len(row)
        if seq % 3 == 0 and when < 5000:
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            push(heap, (when + x % 500 + 1, seq + 1, _Event(seq, x & 15, (when, x))))
    return total


class Reference:
    """How fast the machine ran during a run, from a kernel of fixed
    work timed (CPU clock) between the pieces of a workload.

    A shared host's speed moves by tens of percent over minutes —
    neighbours on the same cores, frequency — which lengthens CPU time
    too, and a best-of cannot see past a slowdown that lasts the whole
    run.  The kernel's best time over the run moves with it (measured:
    README, "Noise discipline"), so CPU-clock times are reported as
    *reference seconds*: divided by ``speed``, the kernel's best time
    over :data:`SECONDS`, its best time on the machine and at the hour
    of the first baseline.
    """

    SECONDS = 0.0054

    def __init__(self) -> None:
        self.best = math.inf
        self.samples = 0

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = thread_time()
            _reference_kernel()
            self.best = min(self.best, thread_time() - start)
        self.samples += times

    @property
    def speed(self) -> float:
        """Above 1: the machine ran slower than the reference."""
        return self.best / self.SECONDS if self.samples else 1.0


@dataclass
class Tally:
    """Operations attempted and failed, with the first failures' text."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def record(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(note)


@dataclass
class Sample:
    """One timed execution of one unit."""

    seconds: float
    #: simulated messages (cells) or checker states (checks)
    steps: int
    #: what the goldens pin: a result digest, or [states, transitions]
    output: object
    #: the RunResult / CheckResult itself (None when the unit raised)
    result: object = None


# ----------------------------------------------------------------------
# one unit
# ----------------------------------------------------------------------
def run_unit(unit, tally: Tally, clock: Callable[[], float] = perf_counter) -> Sample:
    """Run one :class:`Cell` or :class:`Check`, timed on ``clock``, and
    count it.

    A cell fails when it raises or leaves a request incomplete; a
    check fails when it raises, finds a violation or does not explore
    its whole state space.  ``engine.run_scenario`` and
    ``verify.check`` are looked up at call time so a tracer can rebind
    them.
    """
    scenario = unit.spec.build_scenario() if isinstance(unit, Cell) else None
    gc.collect()
    gc.disable()
    start = clock()
    try:
        if scenario is not None:
            result = engine.run_scenario(scenario, require_completion=False)
        else:
            result = verify.check(unit.algo, unit.n, **dict(unit.opts))
        seconds = clock() - start
    except Exception:  # the benchmark must report a crash, not die of it
        seconds = clock() - start
        tally.record(False, f"{unit.id}: raised\n{traceback.format_exc()}")
        return Sample(seconds, 0, None)
    finally:
        gc.enable()
    if scenario is not None:
        ok = result.all_completed()
        note = f"{unit.id}: {result.completed_count}/{result.issued_count} requests completed"
        sample = Sample(seconds, result.messages_total, digest(result), result)
    else:
        ok = result.ok
        note = f"{unit.id}: complete={result.complete} violations={len(result.violations)}"
        sample = Sample(seconds, result.states, [result.states, result.transitions], result)
    tally.record(ok, note)
    return sample


def _round_robin(units, seconds: float):
    """Every unit once, then more passes until ``seconds`` are up."""
    start = perf_counter()
    yield from units
    while True:
        for unit in units:
            if perf_counter() - start >= seconds:
                return
            yield unit


def run_fixed(
    units,
    seconds: float,
    tally: Tally,
    on_unit: Callable = None,
    clock: Callable[[], float] = perf_counter,
    reference: Reference = None,
) -> Dict[str, List[Sample]]:
    """Run ``units`` round-robin for ``seconds`` (each at least once),
    sampling ``reference`` before each.  A unit whose repeats disagree
    on their output is a failure: the program is deterministic."""
    samples: Dict[str, List[Sample]] = {unit.id: [] for unit in units}
    for unit in _round_robin(units, seconds):
        if on_unit is not None:
            on_unit(unit)
        if reference is not None:
            reference.sample()
        sample = run_unit(unit, tally, clock)
        if samples[unit.id]:
            # repeats keep their time and output only, so that memory
            # does not grow with the number of repeats a run fits
            sample.result = None
        samples[unit.id].append(sample)
    for unit_id, runs in samples.items():
        outputs = {json.dumps(s.output) for s in runs}
        if len(outputs) > 1:
            tally.record(False, f"{unit_id}: repeats disagree: {sorted(outputs)}")
    return samples


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------
def open_backend(name: str, scratch: Path):
    """``(backend, close)`` for a backend name; durable ones live
    under ``scratch``, ``http`` starts an in-process cell server."""
    if name == "memory":
        return MemoryBackend(), lambda: None
    if name == "dir":
        return DirectoryBackend(tempfile.mkdtemp(prefix="dir-", dir=scratch)), lambda: None
    if name == "sqlite":
        root = Path(tempfile.mkdtemp(prefix="sqlite-", dir=scratch))
        backend = SQLiteBackend(root / "cells.db")
        return backend, backend.close
    if name == "http":
        server = CellServer().start()
        backend = ServiceBackend(server.url)

        def close() -> None:
            backend.close()
            server.stop()

        return backend, close
    raise ValueError(f"unknown backend {name!r}")


def make_scratch() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="scratch-", dir=OUT_DIR))


def drop_scratch(scratch: Path) -> None:
    shutil.rmtree(scratch, ignore_errors=True)


class _CommitClock:
    """A ``progress`` object for ``run_cells``: one reading of
    ``clock`` per freshly committed cell."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.stamps: List[float] = []

    def step(self, count: int = 1, *, fresh: bool = True) -> None:
        if fresh:
            self.stamps.append(self.clock())


@dataclass
class SliceRun:
    """One pass on one backend: the slice run fresh into an empty
    cache, then resumed."""

    backend: str
    fresh_seconds: float
    resume_seconds: float
    #: seconds from one commit to the next (the first from the start)
    cell_seconds: List[float]
    #: seconds from the last commit to the fresh run's return
    tail_seconds: float
    #: fresh cells that came back with a result, and their messages
    done: int
    steps: int
    #: the results themselves — kept for a backend's first pass only
    #: (every pass commits the same cells; the goldens pin them once)
    fresh: list = field(default_factory=list)
    resumed: list = field(default_factory=list)


def run_slices(
    workload: Workload,
    backend_name: str,
    scratch: Path,
    tally: Tally,
    *,
    seconds: float = 0.0,
    on_pass: Callable[[int], None] = None,
    clock: Callable[[], float] = perf_counter,
    reference: Reference = None,
) -> Tuple[List[SliceRun], List[CellCache]]:
    """The closed loop on one backend: passes for ``seconds`` (at least
    one), sampling ``reference`` before each.  Opening the empty
    backend (and, for ``http``, starting its server) and closing it
    are outside the timed body.  Every cell of a pass is one attempted
    operation, failed when it comes back ``None`` (raised,
    quarantined) fresh or resumed."""
    cells = workload.units
    campaign = Campaign(workload.name, [cell.spec for cell in cells])
    runs: List[SliceRun] = []
    caches: List[CellCache] = []
    start = began = perf_counter()
    longest = 0.0
    # a pass is begun only while half of one as long as the longest so
    # far still fits in ``seconds``
    while not runs or began - start + longest / 2 <= seconds:
        if on_pass is not None:
            on_pass(len(runs))
        backend, close = open_backend(backend_name, scratch)
        cache = CellCache(backend=backend)
        commits = _CommitClock(clock)
        if reference is not None:
            reference.sample(3)  # passes are few: three samples before each
        gc.collect()
        gc.disable()
        try:
            t0 = clock()
            fresh = campaign.run(max_workers=1, steal=True, cache=cache, progress=commits)
            t1 = clock()
            resumed = campaign.run(max_workers=1, steal=True, cache=cache)
            t2 = clock()
        finally:
            gc.enable()
            close()
        stamps = [t0] + commits.stamps
        for cell, a, b in zip(cells, fresh.results, resumed.results):
            tally.record(
                a is not None and b is not None,
                f"{cell.id} on {backend_name}: fresh={a is not None} resumed={b is not None}",
            )
        finished = [r for r in fresh.results if r is not None]
        run = SliceRun(
            backend_name,
            t1 - t0,
            t2 - t1,
            [b - a for a, b in zip(stamps, stamps[1:])],
            t1 - stamps[-1],
            len(finished),
            sum(r.messages_total for r in finished),
        )
        if not runs:
            run.fresh, run.resumed = fresh.results, resumed.results
        runs.append(run)
        caches.append(cache)
        longest = max(longest, perf_counter() - began)
        began = perf_counter()
    return runs, caches


def run_campaign(
    workload: Workload,
    seconds: float,
    scratch: Path,
    tally: Tally,
    clock: Callable[[], float] = perf_counter,
    reference: Reference = None,
) -> List[SliceRun]:
    runs: List[SliceRun] = []
    share = seconds / len(workload.backends)
    for name in workload.backends:
        runs.extend(
            run_slices(
                workload, name, scratch, tally,
                seconds=share, clock=clock, reference=reference,
            )[0]
        )
    return runs


def best_passes(runs: List[SliceRun]) -> List[Tuple[SliceRun, int]]:
    """Per backend, its passes reduced to one — the fresh slice, the
    resumed slice and each cell's commit interval each at their best —
    and how many passes that is the best of."""
    out = []
    for name in dict.fromkeys(run.backend for run in runs):
        mine = [run for run in runs if run.backend == name]
        best = SliceRun(
            name,
            min(run.fresh_seconds for run in mine),
            min(run.resume_seconds for run in mine),
            [min(times) for times in zip(*(run.cell_seconds for run in mine))],
            min(run.tail_seconds for run in mine),
            mine[0].done,
            mine[0].steps,
        )
        out.append((best, len(mine)))
    return out


def check_parity(workload: Workload, runs: List[SliceRun], tally: Tally, sample: int = 20) -> None:
    """Compare ``sample`` cache-resolved cells, spread evenly over each
    backend's kept pass, with a direct ``run_scenario`` of the same
    spec."""
    pairs = [
        (cell, resumed)
        for run in runs
        for cell, resumed in zip(workload.units, run.resumed)
        if resumed is not None
    ]
    stride = max(1, len(pairs) // sample)
    for cell, resumed in pairs[::stride][:sample]:
        direct = engine.run_scenario(cell.spec.build_scenario(), require_completion=False)
        tally.record(
            digest(direct) == digest(resumed),
            f"{cell.id}: cache-resolved result differs from a direct run_scenario",
        )


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
def _common(work: float, cells: int, steps: int, busy: float):
    return {
        "work_s": (work, "s"),
        "cells_per_s": (cells / busy, "1/s"),
        "steps_per_s": (steps / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def fixed_metrics(samples: Dict[str, List[Sample]], speed: float = 1.0) -> dict:
    """``work_s`` is one pass over the units at each unit's best time
    (over ``speed``); the rates are that pass's cells and steps over
    ``work_s``."""
    best = [min(s.seconds for s in runs) / speed for runs in samples.values()]
    steps = sum(runs[0].steps for runs in samples.values())
    work = sum(best)
    return _common(work, len(best), steps, work)


def campaign_metrics(runs: List[SliceRun], speed: float = 1.0) -> dict:
    """A cell's time is the best of its commit intervals over the
    passes, and the fresh slice is the sum of its cells' times (plus
    the run's tail after the last commit, at its best) — the same
    "each unit at its best" as a fixed list, the units being the
    consecutive cells of one ``Campaign.run``.  ``work_s`` is that plus
    the best resumed slice, summed over the backends; the rates are one
    slice's fresh cells (and their simulated messages) per backend over
    the fresh-slice times.  Every time is over ``speed``."""
    work = busy = 0.0
    cells = steps = 0
    for best, _ in best_passes(runs):
        fresh = (sum(best.cell_seconds) + best.tail_seconds) / speed
        work += fresh + best.resume_seconds / speed
        busy += fresh
        cells += best.done
        steps += best.steps
    return _common(work, cells, steps, busy)
