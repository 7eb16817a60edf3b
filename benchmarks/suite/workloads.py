"""Workload generation for the benchmark suite — the only place inputs
are made.

Every workload is a function of ``(seed, size)`` returning a
:class:`Workload`: plain :class:`~repro.experiments.parallel.CellSpec`
cells, campaign slices of them, or ``repro.verify.check`` argument
tuples.  The program under test receives only these generated inputs;
nothing else in the suite invents a scenario.

``seed`` offsets every scenario seed (a *sliding window*: seed ``S``
runs scenario seeds ``S, S+1, …``), so two benchmark seeds share most
of their cells and the metric a run reports moves little with the
seed, while a held-out seed still reaches cells no earlier run saw.
A unit's ``id`` names its full input, independent of the benchmark
seed, which is what ``golden.json`` is keyed by.

``size`` is ``"full"`` (the measured sizes) or ``"toy"`` (the smoke
test's: N <= 12, a handful of cells, ``check(n=2)``).  Each workload
also carries ``traced`` — the reduced unit list the traced run uses —
``warmup``, one small untimed unit that loads lazy imports and grows
the allocator before anything is timed, and ``clock``: the clock its
end-to-end times are read from (``"cpu"``: CPU seconds of the measuring
thread, for work that never waits; ``"wall"``: elapsed seconds, for
the one workload whose cost *is* waiting — see ``README.md``,
"Clocks").

Lists are kept short on purpose: a unit's reported time is the best of
its repeats, and the steadiness of a best-of grows with the number of
repeats a run fits, so each list holds just enough scenario seeds to
pool the input-to-input variation (4 % a cell at N=100) below 2 %.

Each function's docstring records why the workload exists and which
layers it loads and bypasses; ``README.md`` tabulates the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.experiments.campaign import scale_campaign
from repro.experiments.parallel import CellSpec

__all__ = [
    "Cell",
    "Check",
    "Workload",
    "UnknownWorkloadError",
    "WORKLOADS",
    "build",
]

SIZES = ("full", "toy")

#: the reliable-channel spec every faulty cell runs under
RETX = ("retx", 5.0, 1.0, 100)


class UnknownWorkloadError(KeyError):
    """``--workload`` named something that is not in :data:`WORKLOADS`
    (or ``size`` is not one of :data:`SIZES`)."""


@dataclass(frozen=True)
class Cell:
    """One simulated cell: ``run_scenario(spec.build_scenario())``."""

    id: str
    spec: CellSpec
    #: the id of this faulty cell's clean twin ("" for clean cells)
    clean_twin: str = ""


@dataclass(frozen=True)
class Check:
    """One exhaustive exploration: ``check(algo, n, **opts)``."""

    id: str
    algo: str
    n: int
    opts: Tuple[Tuple[str, object], ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    #: "cells" (fixed list of Cell), "checks" (fixed list of Check) or
    #: "campaign" (``units`` is the slice every pass commits afresh)
    shape: str
    units: Tuple = ()
    traced: Tuple = ()
    warmup: Tuple = ()
    #: campaign workloads: backend names the loop runs over, in order
    backends: Tuple[str, ...] = ()
    #: "cpu" or "wall": the clock the end-to-end times are read from
    clock: str = "cpu"


def _cell_id(spec: CellSpec, label: str = "") -> str:
    kind = spec.workload[0]
    if kind == "burst":
        load = f"burst{spec.workload[1]}"
    else:
        load = f"poisson{spec.workload[1]:g}x{spec.workload[2]:g}"
    delay = spec.delay if isinstance(spec.delay, tuple) else ("constant", spec.delay)
    net = "-".join(f"{v:g}" if isinstance(v, float) else str(v) for v in delay)
    tail = f"/{label}" if label else ""
    return f"{spec.algorithm}/n{spec.n_nodes}/{load}/{net}{tail}/s{spec.seed}"


def _cell(spec: CellSpec, label: str = "", clean_twin: str = "") -> Cell:
    return Cell(_cell_id(spec, label), spec, clean_twin)


# ----------------------------------------------------------------------
# simulation workloads
# ----------------------------------------------------------------------
def burst_scale(seed: int, size: str) -> Workload:
    """RCV under the paper's burst load at campaign scale.

    Why: the unit of cost of every scale campaign.  ``core.*`` is
    about 90% of a cell — ``core.state`` + ``core.exchange``, the O(N)
    row sweep per Exchange, about 70% — and ``sim`` + ``net`` stay
    under 10% because a constant delay on a raw channel takes the
    network's fast path.

    Loads: ``core.exchange``, ``core.state``, ``core.order``,
    ``core.node``.  Bypasses: the general network path, faults,
    ``experiments.*``, ``verify``.  A dirty-row Exchange or a compiled
    ``core/`` must show here; kernel or network work must not.

    N=70 rather than the campaign's N=200: a best-of needs a couple of
    dozen repeats to be steady on a shared host, and one N=200 cell
    costs 2.3 s (N=100: 0.4 s).  An N=70 cell costs 0.17 s with the
    same profile (``core.*`` ~88%), and moves 5% with the scenario
    seed; six of them pool that to 2% and leave a run ~22 repeats of
    each.  N=200 is covered by the layer micro-benchmarks
    (``core.*.n200``).
    """
    n, seeds = (70, 6) if size == "full" else (12, 2)

    def cell(s: int, n_nodes: int = n) -> Cell:
        return _cell(CellSpec("rcv", n_nodes, s, ("burst", 1), delay=5.0))

    return Workload(
        "burst_scale",
        "cells",
        units=tuple(cell(seed + k) for k in range(seeds)),
        traced=(cell(seed),),
        warmup=(cell(seed, min(n, 30)),),
    )


def _poisson_spec(algorithm: str, n: int, s: int, deadline: float) -> CellSpec:
    return CellSpec(
        algorithm,
        n,
        s,
        ("poisson", 100.0, deadline),
        delay=("exponential", 5.0, 0.0),
    )


def poisson_steady(seed: int, size: str) -> Workload:
    """RCV under steady Poisson load with exponential (reordering) delays.

    Why: the same ``core.*`` layers as ``burst_scale`` used the other
    way round — small N, long horizon, ~9k messages a cell, steady
    pruning, non-FIFO delivery, and the network's general path.  An
    optimisation for large N that adds per-message bookkeeping pays
    for it here.

    Loads: ``core.*``, ``net`` (general path), ``sim``, ``workload``
    (Poisson arrivals).  Bypasses: faults, ``experiments.*``,
    ``verify``.
    """
    n, deadline, seeds = (30, 6000.0, 8) if size == "full" else (8, 500.0, 2)
    traced_deadline = min(deadline, 4000.0)

    def cell(s: int, horizon: float = deadline) -> Cell:
        return _cell(_poisson_spec("rcv", n, s, horizon))

    return Workload(
        "poisson_steady",
        "cells",
        units=tuple(cell(seed + k) for k in range(seeds)),
        traced=(cell(seed, traced_deadline),),
        warmup=(cell(seed, max(deadline / 10, 500.0)),),
    )


#: Lamport's algorithm is left out: it assumes FIFO channels, and under
#: these reordering delays the safety monitor (rightly) catches it
#: breaching mutual exclusion at scenario seed 7 — a workload may not
#: contain an operation that fails.  Singhal's takes its place.
BASELINES = ("ricart_agrawala", "maekawa", "suzuki_kasami", "singhal")


def baselines_poisson(seed: int, size: str) -> Workload:
    """Four classical algorithms under the ``poisson_steady`` load.

    Why: the workload that never enters ``core.*``.  ``net``,
    ``baselines`` (with ``mutex``) and ``sim`` share the time at
    ~200k simulated messages per host second, so it is where kernel,
    network, metrics and workload-driver changes show (collapsing the
    kernel's two scheduling paths, say) — and where a ``core.*``
    change predicts *no* change.

    Loads: ``sim``, ``net`` (general path), ``baselines``, ``mutex``,
    ``workload``, ``metrics``.  Bypasses: ``core.*``,
    ``experiments.*``, ``verify``.

    Cells are tiny on purpose (requests issued until t=400: 7-13 ms,
    1.4k-2.7k messages each).  This is the workload a busy host hurts
    most — its time is message dispatch, all indirect branches, and a
    processor taken away and handed back has forgotten them — and only
    a piece short enough to fit between two interruptions has a best
    time that a busy hour leaves alone: during one, the best of twenty
    repeats of a 50 ms cell read 1.7-2.7x slow, of a 4 ms cell 1.06x.
    A run repeats each of the 32 cells about seventy times.
    """
    n, deadline, seeds = (30, 400.0, 8) if size == "full" else (8, 300.0, 1)
    traced_deadline = 4000.0 if size == "full" else deadline

    def cell(algo: str, s: int, horizon: float = deadline) -> Cell:
        return _cell(_poisson_spec(algo, n, s, horizon))

    return Workload(
        "baselines_poisson",
        "cells",
        units=tuple(
            cell(algo, seed + k) for k in range(seeds) for algo in BASELINES
        ),
        traced=(cell("ricart_agrawala", seed, traced_deadline),),
        warmup=tuple(cell(algo, seed) for algo in BASELINES),
    )


def fault_points(n: int) -> Tuple[Tuple[str, Tuple], ...]:
    """The eight recoverable fault points of the resilience grid (the
    heavier intensity of each kind in ``figures.fault_grid``, the
    crash made recoverable, plus one combined point)."""
    half = tuple(range(n // 2))
    rest = tuple(range(n // 2, n))
    return (
        ("drop-1%", (("drop", 0.01),)),
        ("drop-4%", (("drop", 0.04),)),
        ("drop-10%", (("drop", 0.10),)),
        ("dup-10%", (("dup", 0.10),)),
        ("reorder-25", (("reorder", 25.0),)),
        ("partition-30-60", (("partition", ((30.0, 60.0, half, rest),)),)),
        (
            "crash-last@20-recover@200",
            (("crash", ((n - 1, 20.0),)), ("recover", ((n - 1, 200.0),))),
        ),
        (
            "drop-10%+dup-10%+reorder-25",
            (("drop", 0.10), ("dup", 0.10), ("reorder", 25.0)),
        ),
    )


def faults_retx(seed: int, size: str) -> Workload:
    """The fault grid users regenerate, over the reliable channel.

    Why: ``FaultyChannel``, ``ReliableChannel``, outage handling and
    ``rejoin()`` all sit on the network's general path and nowhere
    else.  Every point completes 100% of its requests under retx, so
    a request that does not complete is a *failed* operation — the
    benchmark's liveness gate.  Each (N, seed) also runs its clean
    twin, which gives ``net.fault_overhead_ratio`` its base.

    Loads: ``net.faults``, ``net.retx``, ``net`` (general path),
    ``core.*``, ``engine`` (fault schedules).  Bypasses:
    ``experiments.*``, ``verify``.

    N=50 only (the grid in ``bench_campaign`` also runs N=100/200):
    nine cells a seed at N=100 cost 5 s, which leaves no room to pool
    the seeds a steady number needs.
    """
    n, seeds = (50, 6) if size == "full" else (10, 1)

    def cells(s: int) -> List[Cell]:
        clean = _cell(CellSpec("rcv", n, s, ("burst", 1), delay=5.0), "clean")
        out = [clean]
        for label, faults in fault_points(n):
            spec = CellSpec(
                "rcv", n, s, ("burst", 1), delay=5.0, faults=faults, retx=RETX
            )
            out.append(_cell(spec, label, clean.id))
        return out

    first = cells(seed)
    return Workload(
        "faults_retx",
        "cells",
        units=tuple(c for k in range(seeds) for c in cells(seed + k)),
        # clean twin, the heaviest loss point and the crash/rejoin point
        traced=(first[0], first[3], first[7]),
        warmup=(first[8],),
    )


# ----------------------------------------------------------------------
# campaign workloads
# ----------------------------------------------------------------------
CAMPAIGN_ALGORITHMS = ("rcv", "maekawa")
CAMPAIGN_N_VALUES = (6, 8, 10, 12)


def _campaign_slice(seed: int, seeds: int, n_values) -> Tuple[Cell, ...]:
    campaign = scale_campaign(
        CAMPAIGN_ALGORITHMS,
        n_values=n_values,
        seeds=range(seed, seed + seeds),
        requests_per_node=2,
    )
    return tuple(_cell(spec) for spec in campaign.cells)


def campaign_local(seed: int, size: str) -> Workload:
    """Many tiny cells through ``Campaign.run`` on the two local,
    durable cache backends (SQLite, then directory).

    Why: a cell costs ~3-4 ms, small enough that spec normalisation,
    ``cache_key``, engine set-up, warm templates, claim/commit/release
    and document encode/decode show (about a quarter of a traced slice
    at the first baseline).  The workload that decides ROADMAP's
    "shrink the campaign stack" items.

    Closed loop, one worker (``max_workers=1, steal=True``): a pass
    opens an empty cache, runs the 64-cell slice fresh, then runs it
    again (every cell resolves from the cache — the resume path).
    Every pass commits the same cells, so passes are repeats of one
    piece of work and the best of them is reported.

    Loads: ``experiments.parallel``, ``experiments.cache``,
    ``experiments.backends`` (sqlite, dir), ``engine``, ``metrics``
    (result encode/decode).  Bypasses: ``experiments.service``, large-N
    ``core.*`` cost, ``verify``.
    """
    full = size == "full"
    n_values = CAMPAIGN_N_VALUES if full else (6, 8)
    cells = _campaign_slice(seed, 8 if full else 1, n_values)
    return Workload(
        "campaign_local",
        "campaign",
        units=cells,
        warmup=cells[:2],
        backends=("sqlite", "dir"),
    )


def campaign_served(seed: int, size: str) -> Workload:
    """The same cells through ``ServiceBackend`` to an in-process
    ``CellServer`` (memory store) on loopback.

    Why: ``experiments.service`` does nearly all the work — about six
    round trips a cell at ~44 ms each today — so any wire or connection
    change shows here, and ``campaign_local`` is its bypass.

    The slice is 8 cells (one scenario seed), not 64: the stealing loop
    re-probes every pending cell each round, so round trips per cell
    grow with the slice, and a 64-cell slice would take a whole run.

    Timed on the wall clock, alone among the workloads: the cost is
    time spent waiting for the server's replies, which CPU seconds do
    not contain (and which, being timers, the host's load barely moves).

    Loads: ``experiments.service``, ``experiments.backends`` (http),
    ``experiments.cache``.  Bypasses: the sqlite/dir backends,
    ``verify``, large-N ``core.*`` cost.
    """
    full = size == "full"
    n_values = CAMPAIGN_N_VALUES if full else (6,)
    cells = _campaign_slice(seed, 1, n_values)
    return Workload(
        "campaign_served",
        "campaign",
        units=cells,
        warmup=cells[:1],
        backends=("http",),
        clock="wall",
    )


# ----------------------------------------------------------------------
# model checker
# ----------------------------------------------------------------------
VERIFY_ALGORITHMS = ("rcv", "ricart_agrawala", "maekawa")


def verify_n3(seed: int, size: str) -> Workload:
    """``repro.verify.check``, exhaustive, on the verified matrix.

    Why: the checker is a user-facing command and a CI gate, and its
    states/s depends on no layer but the ``core.*``/``baselines`` node
    code it drives.  State and transition counts are exact protocol
    outputs, pinned in ``golden.json``.

    The inputs do not depend on ``seed``: the exploration is
    exhaustive, there is nothing to sample.

    Loads: ``verify``, and the node code of ``core.node`` /
    ``baselines`` under it.  Bypasses: ``sim``, ``net``, ``engine``,
    ``experiments.*``.
    """
    n = 3 if size == "full" else 2
    units = [
        Check(f"{algo}/n{n}/{channel}", algo, n, (("fifo", channel == "fifo"),))
        for algo in VERIFY_ALGORITHMS
        for channel in ("nonfifo", "fifo")
    ]
    # the reliable-channel models, exhaustive only at N=2
    units.append(
        Check("rcv/n2/retx-drop1", "rcv", 2, (("drop_budget", 1), ("retx", True)))
    )
    units.append(
        Check(
            "rcv/n2/retx-drop1-dup1",
            "rcv",
            2,
            (("drop_budget", 1), ("dup_budget", 1), ("retx", True)),
        )
    )
    return Workload(
        "verify_n3",
        "checks",
        units=tuple(units),
        traced=(units[0],),
        warmup=(Check("rcv/n2/nonfifo", "rcv", 2),),
    )


WORKLOADS: Dict[str, Callable[[int, str], Workload]] = {
    fn.__name__: fn
    for fn in (
        burst_scale,
        poisson_steady,
        baselines_poisson,
        faults_retx,
        campaign_local,
        campaign_served,
        verify_n3,
    )
}


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The named workload's inputs for ``seed``, or a typed error."""
    if name not in WORKLOADS:
        raise UnknownWorkloadError(
            f"unknown workload {name!r}; choices: {sorted(WORKLOADS)}"
        )
    if size not in SIZES:
        raise UnknownWorkloadError(f"unknown size {size!r}; choices: {SIZES}")
    return WORKLOADS[name](seed, size)
