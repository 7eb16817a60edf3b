"""Regeneration of the paper's Figures 4–7 and the §6.1 table.

The paper's settings (§6.2): constant propagation delay Tn = 5,
constant CS time Tc = 10, reliable non-FIFO network.

* Figures 4–5 — the burst workload: all N nodes request at t=0, once
  each, for N = 5..50; Figure 4 plots messages per CS (NME), Figure 5
  response time.  Algorithms: RCV, Maekawa, Ricart–Agrawala,
  Broadcast (Suzuki–Kasami).
* Figures 6–7 — N = 30 with Poisson arrivals, sweeping the mean
  inter-arrival time 1/λ; Figure 6 plots NME (RCV vs Maekawa),
  Figure 7 response time (all four).

The paper runs 100 000 time units; the default here is 20 000 (the
curves are statistically indistinguishable — see EXPERIMENTS.md),
with ``horizon`` exposed so the CLI's ``--paper-scale`` flag restores
the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.campaign import _last_error_line
from repro.experiments.parallel import run_cells
from repro.experiments.spec import UnrepresentableScenarioError, cell_grid
from repro.metrics.records import RunResult
from repro.metrics.summary import Summary, summarize

__all__ = [
    "FigureData",
    "QuarantinedCellError",
    "burst_sweep",
    "fault_grid",
    "fault_sweep",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "lambda_sweep",
    "theory_table",
    "DEFAULT_BURST_ALGOS",
]

#: the four algorithms of Figures 4, 5 and 7 (paper names)
DEFAULT_BURST_ALGOS: Tuple[str, ...] = (
    "rcv",
    "maekawa",
    "ricart_agrawala",
    "broadcast",
)

TN = 5.0

#: ``results[algorithm][x]`` = one run per seed — what a sweep returns
#: and a figure reduces
SweepResults = Dict[str, Dict[object, List[RunResult]]]


@dataclass
class FigureData:
    """One reproduced figure: named series over a shared x axis."""

    figure: str
    x_label: str
    y_label: str
    x: List[float]
    series: Dict[str, List[Summary]] = field(default_factory=dict)

    def as_rows(self) -> List[dict]:
        rows = []
        for i, xv in enumerate(self.x):
            row = {self.x_label: xv}
            for name, values in self.series.items():
                row[name] = str(values[i])
            rows.append(row)
        return rows


class QuarantinedCellError(RuntimeError):
    """A cached sweep came back with a hole: one of its cells raised
    ``max_failures`` times and was quarantined, so no figure can be
    reduced from it.  ``spec`` is the cell, ``record`` its case file
    (``{"count": int, "failures": [{owner, error, time}, ...]}``)."""

    def __init__(self, spec, record: dict) -> None:
        failures = record.get("failures") or [{}]
        error = _last_error_line(failures[-1].get("error", ""))
        super().__init__(
            f"sweep cell {spec!r} is quarantined after "
            f"{record.get('count', '?')} failures; last: "
            f"{error or 'unknown'}. Triage it (docs/operations.md) and "
            "re-run the sweep over the same cache."
        )
        self.spec = spec
        self.record = record


# ----------------------------------------------------------------------
# the sweeps: a grid of cells through run_cells
# ----------------------------------------------------------------------
def _sweep(
    points, algorithms, seeds, max_workers, cache, fields
) -> SweepResults:
    """Run the ``algorithms`` x ``points`` x ``seeds`` grid (see
    :func:`~repro.experiments.spec.cell_grid`) and regroup the runs;
    a cell quarantined in ``cache`` is a :class:`QuarantinedCellError`."""
    for name, value in fields.items():
        if callable(value):
            # A Scenario component (cs-time function, delay model
            # object) is not a picklable spec; a pool would die on it
            # with a pickling error, so name the field here instead.
            raise UnrepresentableScenarioError(
                f"{name}={value!r}: sweeps take CellSpec spec forms, e.g. "
                f"cs_time=('uniform', 8, 12) or delay=('exponential', 4, 1)"
            )
    grid = cell_grid(algorithms, points, seeds, **fields)
    cells = [cell for _, _, cell in grid]
    runs = run_cells(cells, max_workers=max_workers, cache=cache)
    if None in runs:
        cell = cells[runs.index(None)]
        raise QuarantinedCellError(
            cell, cache.quarantined().get(cell.cache_key(), {})
        )
    results: SweepResults = {a: {x: [] for x in points} for a in algorithms}
    for (algorithm, x, _), run in zip(grid, runs):
        results[algorithm][x].append(run)
    return results


def burst_sweep(
    n_values: Sequence[int] = tuple(range(5, 51, 5)),
    algorithms: Sequence[str] = DEFAULT_BURST_ALGOS,
    seeds: Sequence[int] = tuple(range(5)),
    *,
    requests_per_node: int = 1,
    max_workers: Optional[int] = None,
    cache=None,
    **fields,
) -> SweepResults:
    """The Figure 4/5 workload — every node requests
    ``requests_per_node`` times from t=0 — swept over N;
    ``results[algo][n]`` = runs.

    ``fields`` are the other :class:`~repro.experiments.spec.CellSpec`
    fields in spec form (``cs_time``, ``delay``, ``algo_kwargs``,
    ``faults``, ``retx``; default Tc=10, Tn=5); ``max_workers`` and
    ``cache`` go to :func:`~repro.experiments.parallel.run_cells`, and
    a cell quarantined in the cache is a
    :class:`QuarantinedCellError`.
    """
    points = {
        n: {"n_nodes": n, "workload": ("burst", requests_per_node)}
        for n in n_values
    }
    return _sweep(points, algorithms, seeds, max_workers, cache, fields)


def lambda_sweep(
    inv_lambdas: Sequence[float] = (1, 2, 5, 10, 15, 20, 25, 30),
    algorithms: Sequence[str] = DEFAULT_BURST_ALGOS,
    n_nodes: int = 30,
    seeds: Sequence[int] = tuple(range(3)),
    horizon: float = 20_000.0,
    *,
    max_workers: Optional[int] = None,
    cache=None,
    **fields,
) -> SweepResults:
    """The Figure 6/7 workload — Poisson arrivals at ``n_nodes`` —
    swept over the mean inter-arrival time; ``results[algo][1/λ]`` =
    runs.  Requests stop arriving at ``horizon`` and in-flight ones
    drain (the ``poisson`` workload of
    :class:`~repro.experiments.spec.CellSpec`); ``fields``,
    ``max_workers`` and ``cache`` as for :func:`burst_sweep`.
    """
    points = {
        float(v): {
            "n_nodes": n_nodes,
            "workload": ("poisson", float(v), horizon),
        }
        for v in inv_lambdas
    }
    return _sweep(points, algorithms, seeds, max_workers, cache, fields)


# ----------------------------------------------------------------------
# Figures 4-7: reducers of a sweep's results
# ----------------------------------------------------------------------
def _figure(figure, x_label, y_label, metric, results) -> FigureData:
    # The x axis is the sweep's own (its first series' keys), and each
    # series is looked up by x — never zipped against a caller's list.
    xs = list(next(iter(results.values()), {}))
    return FigureData(
        figure=figure,
        x_label=x_label,
        y_label=y_label,
        x=xs,
        series={
            algo: [
                summarize(getattr(r, metric) for r in per_x[x]) for x in xs
            ]
            for algo, per_x in results.items()
        },
    )


def figure4(results: SweepResults) -> FigureData:
    """Figure 4: average NME vs node count, from a :func:`burst_sweep`."""
    return _figure("Figure 4", "N", "messages per CS (NME)", "nme", results)


def figure5(results: SweepResults) -> FigureData:
    """Figure 5: average response time vs node count, from a
    :func:`burst_sweep`."""
    return _figure(
        "Figure 5", "N", "response time", "mean_response_time", results
    )


def figure6(results: SweepResults) -> FigureData:
    """Figure 6: NME vs 1/λ at N=30 (the paper plots RCV vs Maekawa),
    from a :func:`lambda_sweep`."""
    return _figure(
        "Figure 6", "1/lambda", "messages per CS (NME)", "nme", results
    )


def figure7(results: SweepResults) -> FigureData:
    """Figure 7: response time vs 1/λ at N=30 (all four), from a
    :func:`lambda_sweep`."""
    return _figure(
        "Figure 7", "1/lambda", "response time", "mean_response_time", results
    )


# ----------------------------------------------------------------------
# adversarial-network sweep (fault fabric; docs/faults.md)
# ----------------------------------------------------------------------
def fault_grid(n: int) -> Tuple[Tuple[str, Tuple], ...]:
    """The canonical fault points of the resilience figures.

    ``(label, fault_spec)`` pairs for a scenario of ``n`` nodes: the
    clean baseline, two intensities each of drop/dup/reorder, one
    halving partition window over the burst, and one late-joiner
    crash.  N-dependent shapes (partition groups, the crash target)
    are resolved here, which is why this is a function of ``n``.
    """
    half = tuple(range(n // 2))
    rest = tuple(range(n // 2, n))
    return (
        ("clean", ()),
        ("drop-1%", (("drop", 0.01),)),
        ("drop-4%", (("drop", 0.04),)),
        ("drop-10%", (("drop", 0.10),)),
        ("dup-2%", (("dup", 0.02),)),
        ("dup-10%", (("dup", 0.10),)),
        ("reorder-5", (("reorder", 5.0),)),
        ("reorder-25", (("reorder", 25.0),)),
        ("partition-30-60", (("partition", ((30.0, 60.0, half, rest),)),)),
        ("crash-last@20", (("crash", ((n - 1, 20.0),)),)),
    )


def fault_sweep(
    n_values: Sequence[int],
    algorithms: Sequence[str] = ("rcv", "maekawa"),
    seeds: Sequence[int] = (0,),
    *,
    requests_per_node: int = 1,
    grid: Callable[[int], Tuple] = fault_grid,
    retx: Tuple = (),
    max_workers: Optional[int] = None,
    cache=None,
) -> Dict[str, Dict[str, Dict[int, List[RunResult]]]]:
    """Run the burst grid under each fault model; results[algo][label][n].

    A faulted cell that loses liveness is a *measured outcome* — it
    comes back (and is cached) with ``completed_count <
    issued_count``, the completion rate quantifying the loss — while
    the grid's clean point must complete (the one completion rule of
    :func:`~repro.experiments.parallel.run_cells`; docs/faults.md).

    ``retx`` runs the whole grid over the reliable (ack/retransmit)
    channel — the with-retx columns of the resilience figures
    (docs/faults.md, "Recovery"); ``max_workers`` and ``cache`` as for
    :func:`burst_sweep`.
    """
    points = {
        (label, n): {"n_nodes": n, "faults": faults}
        for n in n_values
        for label, faults in grid(n)
    }
    fields = {"workload": ("burst", requests_per_node), "retx": retx}
    out: Dict[str, Dict[str, Dict[int, List[RunResult]]]] = {}
    for algo, per_point in _sweep(
        points, algorithms, seeds, max_workers, cache, fields
    ).items():
        for (label, n), runs in per_point.items():
            out.setdefault(algo, {}).setdefault(label, {})[n] = runs
    return out


# ----------------------------------------------------------------------
# §6.1 analytical table
# ----------------------------------------------------------------------
#: burst size of the §6.1 heavy-load runs (distinct from the
#: Figure 4/5 single-request burst): sweep with
#: ``burst_sweep(..., requests_per_node=THEORY_REQUESTS_PER_NODE)``
THEORY_REQUESTS_PER_NODE = 3


def theory_table(results: SweepResults) -> List[dict]:
    """Measured heavy-load metrics vs the §6.1/related-work model, one
    row per (algorithm, N) of a :func:`burst_sweep`."""
    from repro.analysis.validate import compare_to_theory

    rows: List[dict] = []
    for per_n in results.values():
        for runs in per_n.values():
            # Compare the seed-averaged run to the model.
            comparison = compare_to_theory(runs[0], tn=TN)
            comparison.measured_nme = summarize(r.nme for r in runs).mean
            comparison.measured_sync = summarize(
                r.mean_sync_delay for r in runs
            ).mean
            rows.append(comparison.row())
    return rows
