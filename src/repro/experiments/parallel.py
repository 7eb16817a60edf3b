"""Multiprocess experiment execution.

The figure sweeps are embarrassingly parallel over (algorithm,
x-value, seed) cells — each cell is one independent deterministic
simulation.  ``run_cells`` fans cells out over a process pool
(processes, not threads: the simulator is pure Python and CPU-bound,
so the GIL rules threads out — the standard HPC-Python trade-off).

Cells are described by picklable
:class:`~repro.experiments.spec.CellSpec` values rather than
:class:`~repro.workload.scenario.Scenario` objects (scenarios carry
callables); the worker rebuilds the scenario, runs it through the
unified :class:`repro.engine.Engine`, and ships back the
:class:`~repro.metrics.records.RunResult`.  Sequential and pooled
execution share that single construction path, so they are
bit-for-bit identical per (cell, seed).  What a cell *is* — its
fields, their codecs, the cache key — lives in
:mod:`repro.experiments.spec`; this module only schedules.

``run_cells`` has one rule for a run with a
:class:`~repro.experiments.cache.CellCache` (content-addressed by
:meth:`CellSpec.cache_key`): every cell is claimed through it, so an
interrupted campaign resumes recomputing only missing cells, and
independent processes or hosts sharing the cache backend split a
campaign by leasing cells through it.  It also reports progress/ETA.
See docs/campaigns.md.

Every grid of cells in the repo — the figure sweeps
(:mod:`repro.experiments.figures`, ``python -m repro.cli fig4``) and
the campaigns (``python -m repro.cli campaign``) — runs through
``run_cells``.  With one usable CPU, or never two cells to compute at
once (a resumed campaign), it runs the cells in this process and
creates no pool.
"""

from __future__ import annotations

import os
import sys
import time
from collections import deque
from typing import List, Optional, Sequence, Tuple

from repro.experiments.spec import CellSpec
from repro.metrics.records import RunResult

__all__ = [
    "CellSpec",
    "ProgressReporter",
    "default_owner",
    "run_cells",
]


def _run_cell(spec: CellSpec) -> RunResult:
    # One construction path for every pipeline: the unified engine.
    from repro.engine import run_scenario

    scenario = spec.build_scenario()
    # The one completion rule (docs/faults.md): on a clean network a
    # stranded request is a liveness bug (Theorems 2-3) and raises; on
    # an adversarial one it is the measurement, returned and cached
    # with ``completed_count < issued_count``.
    return run_scenario(scenario, require_completion=not scenario.faults)


def _run_cell_guarded(spec: CellSpec) -> Tuple[str, object]:
    """``("ok", result)`` or ``("error", traceback_text)``.

    A cached run's worker function: a cell that raises must be
    *attributed* (which cell, what error) so the campaign can retry
    and eventually quarantine it — an exception propagating out of a
    pool batch loses both.
    """
    import traceback

    try:
        return ("ok", _run_cell(spec))
    except Exception:
        return ("error", traceback.format_exc())


# ----------------------------------------------------------------------
# progress / ETA
# ----------------------------------------------------------------------
class ProgressReporter:
    """Throttled ``done/total (pct) elapsed ETA`` lines on a stream.

    Campaigns at N=200 spend seconds per cell; the reporter prints at
    most once per ``min_interval`` seconds (and always on the final
    cell) so progress is visible without drowning the terminal.

    The ETA extrapolates from **fresh** cells only (``step(...,
    fresh=False)`` marks cache-resumed cells): cached cells load at
    t≈0, and dividing total elapsed by a ``done`` count that includes
    them used to make a resumed campaign report a wildly optimistic
    ETA for the remainder, which is all fresh work.
    """

    def __init__(
        self,
        total: int,
        *,
        stream=None,
        min_interval: float = 1.0,
        clock=time.perf_counter,
    ):
        self.total = total
        self.done = 0
        #: cells actually simulated this run (ETA basis); cached loads
        #: are excluded
        self.fresh_done = 0
        self._stream = stream if stream is not None else sys.stderr
        self._min_interval = min_interval
        self._clock = clock
        self._start = clock()
        self._last_print = 0.0

    def step(self, count: int = 1, *, fresh: bool = True) -> None:
        self.done += count
        if fresh:
            self.fresh_done += count
        now = self._clock()
        if (
            now - self._last_print < self._min_interval
            and self.done < self.total
        ):
            return
        self._last_print = now
        elapsed = now - self._start
        if self.fresh_done and self.done < self.total:
            eta = elapsed / self.fresh_done * (self.total - self.done)
            eta_text = f" ETA {eta:,.0f}s"
        else:
            eta_text = ""
        pct = 100.0 * self.done / self.total if self.total else 100.0
        print(
            f"[campaign] {self.done}/{self.total} cells "
            f"({pct:.0f}%) in {elapsed:,.1f}s{eta_text}",
            file=self._stream,
            flush=True,
        )


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def default_owner() -> str:
    """Identity a worker leases cells under."""
    import socket

    return f"{socket.gethostname()}:{os.getpid()}"


def _usable_cpus() -> int:
    """CPUs this process may run on: an affinity mask (taskset, a
    container's cpuset) can leave far fewer than the host has, and a
    pool sized by ``os.cpu_count()`` would then oversubscribe them."""
    if hasattr(os, "process_cpu_count"):  # Python >= 3.13
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):  # not on macOS/Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_cells(
    specs: Sequence[CellSpec],
    *,
    max_workers: Optional[int] = None,
    cache=None,
    progress=None,
    steal: bool = False,
    owner: Optional[str] = None,
    lease_ttl: float = 60.0,
    poll_interval: float = 0.05,
    steal_timeout: Optional[float] = None,
    max_failures: int = 3,
) -> List[Optional[RunResult]]:
    """Run all cells, in parallel when more than one worker is useful.

    Results come back in spec order regardless of completion order, so
    parallel and sequential execution produce identical outputs (each
    cell is internally deterministic from its seed).  A pool of
    ``max_workers`` (default: one per usable CPU) opens only once two
    or more cells are to be computed at a time.  **Without a cache**
    every cell is computed, streaming back in order.

    **With a cache** (a :class:`~repro.experiments.cache.CellCache`,
    over any backend) every cell is claimed through it, so a run is
    resumable and any number of workers sharing the backend split the
    campaign between them.  Each of the ``max_workers`` slots holds at
    most one claimed cell: a slot claims its next cell when it frees
    (``cache.claim(key, owner, lease_ttl)``, the one look at a cell)
    and commits it when it finishes.  A claim answers with the
    committed result (adopted), the lease (this worker computes the
    cell and commits it, which ends the lease), a live peer's lease
    (re-claimed when a slot frees, or every ``poll_interval`` seconds,
    backing off to 1 s, while nothing else is left) or quarantine.  A
    claim takes the lease before it looks at the store, and a commit
    stores before it ends the lease, so every cell is computed exactly
    once: a fresh cell costs the backend two calls (a claim and a
    write) and a resumed one a claim.  A lease lives only while its
    cell computes, so ``lease_ttl`` needs to cover one cell's wall
    clock; a too-short ttl only duplicates deterministic work, never
    corrupts results.  An interrupt loses at most the cells in flight,
    whose leases it releases.  ``steal_timeout`` bounds how long the
    worker will go *without making progress* while foreign leases
    block it (None: wait as long as it takes).

    **Completion** — a cell must complete every request it issues
    exactly when its normalized ``faults`` is ``()``: a clean cell
    that strands one raises ``IncompleteRunError`` (a liveness bug),
    a faulted one that does is the measurement and comes back, and is
    cached, as a result with ``completed_count < issued_count``
    (docs/faults.md).

    **Retry / quarantine** (cached runs) — a cell whose computation
    raises, a clean cell that strands included, is not re-raised into
    the run: the failure (with traceback) is recorded in the shared
    backend, the lease released, and the cell retried — by this worker
    or any peer — until the campaign-wide failure count reaches
    ``max_failures``, at which point the cell is **quarantined**:
    claims answer so from then on, and its slot in the result list
    stays ``None`` (``Campaign.run`` and the sweeps surface the case
    file; docs/operations.md covers triage).  A deterministically
    crashing cell cannot ping-pong between workers forever, so a
    cached run always terminates, and is complete whenever no cell
    exhausted its failure budget.

    ``progress`` is a :class:`ProgressReporter` (or ``True`` for a
    default one); steps fire per completed cell — cached cells step
    with ``fresh=False`` so the ETA tracks fresh throughput.

    ``steal`` selects nothing (every cached run claims its cells); it
    is accepted for callers written when claiming was opt-in.
    """
    specs = list(specs)
    if cache is not None:
        if max_failures < 1:
            raise ValueError(
                f"max_failures must be >= 1, got {max_failures}"
            )
        seconds = {"lease_ttl": lease_ttl, "poll_interval": poll_interval}
        if steal_timeout is not None:
            seconds["steal_timeout"] = steal_timeout
        for name, value in seconds.items():
            if not 0 < value < float("inf"):  # NaN fails both
                raise ValueError(
                    f"{name} must be a finite number of seconds > 0, got {value}"
                )
        owner = owner or default_owner()
    if progress is True:
        progress = ProgressReporter(len(specs))
    if max_workers is None:
        max_workers = min(len(specs), _usable_cpus())

    results: List[Optional[RunResult]] = [None] * len(specs)
    pool = None

    def open_pool():
        nonlocal pool
        if pool is None:
            # Imported here: an inline run never pays for the pool
            # machinery (15 ms, 1.2 MB, ``multiprocessing`` behind it).
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=max_workers)
        return pool

    def _claim_loop():
        # here: a run without a cache never loads the backends
        from repro.experiments.backends import HELD, YOURS

        slots = max(1, max_workers)
        work = deque(range(len(specs)))  # cells not settled yet
        held = 0  # HELD answers in a row: the last ``held`` cells of work
        leased: set = set()  # claimed by a slot, not yet committed
        running: dict = {}  # pool future -> its cell
        missed: set = set()
        # Stall clock: time since this worker last made progress
        # (claimed, settled, or finished a cell) — NOT since the loop
        # started, so long healthy runs never trip steal_timeout.
        last_progress = time.monotonic()
        backoff = poll_interval

        def claim_next() -> Optional[int]:
            """The next cell this worker leased, or None once every
            cell left is leased by a live peer (or none is left)."""
            nonlocal held, last_progress, backoff
            while held < len(work):
                i = work.popleft()
                answer = cache.claim(specs[i], owner, lease_ttl)
                if answer is HELD:
                    work.append(i)  # a live peer is computing it
                    held += 1
                    continue
                last_progress, backoff = time.monotonic(), poll_interval
                if answer is YOURS:
                    # The miss is real (and matches a later write).
                    # Once per cell: a crashed-then-retried cell is
                    # still one miss, not one per attempt.
                    if i not in missed:
                        cache.misses += 1
                        missed.add(i)
                    leased.add(i)
                    return i
                # Committed (here or by a peer), or quarantined after
                # repeated crashes: its slot stays None, and the
                # campaign summary carries the case file.
                results[i] = answer
                if progress:
                    progress.step(fresh=False)
            return None

        def finish(i: int, outcome: Tuple[str, object]) -> None:
            """Commit a computed cell, or log its crash (attributed by
            ``_run_cell_guarded``) and retry or quarantine it."""
            nonlocal held, last_progress, backoff
            # A slot frees: the cells peers held are worth a new look.
            held = 0
            last_progress, backoff = time.monotonic(), poll_interval
            status, payload = outcome
            if status == "ok":
                results[i] = payload
                cache.put(specs[i], payload)  # the commit ends the lease
                leased.discard(i)
                if progress:
                    progress.step()
                return
            if cache.record_failure(specs[i], owner, payload) >= max_failures:
                # The campaign-wide budget is spent: poison the cell
                # so no worker ever claims it again.
                cache.quarantine(specs[i])
                if progress:
                    progress.step(fresh=False)
            else:
                work.append(i)
            cache.release(specs[i], owner)
            leased.discard(i)

        try:
            while True:
                fresh: List[int] = []
                while len(leased) < slots:
                    i = claim_next()
                    if i is None:
                        break
                    fresh.append(i)
                if pool is None and len(fresh) == 1:
                    # One cell to compute at a time: compute it here.
                    finish(fresh[0], _run_cell_guarded(specs[fresh[0]]))
                    continue
                for i in fresh:
                    running[open_pool().submit(_run_cell_guarded, specs[i])] = i
                if running:
                    from concurrent.futures import FIRST_COMPLETED, wait

                    done, _ = wait(running, return_when=FIRST_COMPLETED)
                    for future in done:
                        finish(running.pop(future), future.result())
                    continue
                if not work:
                    return
                # Everything left is leased by live peers: wait for
                # them to commit or for their leases to expire,
                # backing off so a blocked worker does not hammer the
                # shared backend with fruitless claims.
                if (
                    steal_timeout is not None
                    and time.monotonic() - last_progress > steal_timeout
                ):
                    raise RuntimeError(
                        f"cached run stalled: {len(work)} "
                        f"cells held by other workers for over "
                        f"{steal_timeout}s without progress"
                    )
                time.sleep(backoff)
                backoff = min(backoff * 2, 1.0)
                held = 0
        finally:
            # On an exception (an interrupt, pool breakage, backend
            # gone), free the leases of the cells in flight now, so
            # peers take them over at once instead of after lease_ttl.
            for i in leased:
                cache.release(specs[i], owner)

    try:
        if cache is None:
            if max_workers <= 1 or len(specs) <= 1:
                computed = map(_run_cell, specs)
            else:
                computed = open_pool().map(_run_cell, specs, chunksize=1)
            for i, result in enumerate(computed):
                results[i] = result
                if progress:
                    progress.step()
        else:
            _claim_loop()
    finally:
        if pool is not None:
            pool.shutdown()
    return results
