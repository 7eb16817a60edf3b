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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.records import RunResult
from repro.metrics.summary import Summary, summarize
from repro.workload.arrivals import BurstArrivals, PoissonArrivals
from repro.workload.runner import run_scenario
from repro.workload.scenario import Scenario, constant_cs_time

__all__ = [
    "FigureData",
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
TC = 10.0


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


# ----------------------------------------------------------------------
# Figures 4 & 5: burst workload, sweep N
# ----------------------------------------------------------------------
def burst_sweep(
    n_values: Sequence[int] = tuple(range(5, 51, 5)),
    algorithms: Sequence[str] = DEFAULT_BURST_ALGOS,
    seeds: Sequence[int] = tuple(range(5)),
    *,
    requests_per_node: int = 1,
    cs_time: Optional[Callable] = None,
    delay_model=None,
) -> Dict[str, Dict[int, List[RunResult]]]:
    """Run the Figure 4/5 workload; returns results[algo][n] = runs.

    ``requests_per_node``, ``cs_time`` (a scenario cs-time callable;
    default Tc=10), and ``delay_model`` (default ConstantDelay(Tn))
    parameterise the sweep; the parallel twin
    :func:`repro.experiments.parallel.parallel_burst_sweep` takes the
    same parameters (in picklable spec form) and must stay
    bit-for-bit identical per cell — see tests/test_campaign_parity.py.
    """
    out: Dict[str, Dict[int, List[RunResult]]] = {}
    for algo in algorithms:
        per_n: Dict[int, List[RunResult]] = {}
        for n in n_values:
            runs = []
            for seed in seeds:
                scenario = Scenario(
                    algorithm=algo,
                    n_nodes=n,
                    arrivals=BurstArrivals(
                        requests_per_node=requests_per_node
                    ),
                    seed=seed,
                    cs_time=(
                        cs_time if cs_time is not None
                        else constant_cs_time(TC)
                    ),
                    delay_model=delay_model,
                )
                runs.append(run_scenario(scenario))
            per_n[n] = runs
        out[algo] = per_n
    return out


def _reduce(
    results: Dict[str, Dict[int, List[RunResult]]],
    metric: str,
) -> Dict[str, List[Summary]]:
    series: Dict[str, List[Summary]] = {}
    for algo, per_x in results.items():
        series[algo] = [
            summarize(getattr(r, metric) for r in runs)
            for runs in per_x.values()
        ]
    return series


def figure4(
    n_values: Sequence[int] = tuple(range(5, 51, 5)),
    algorithms: Sequence[str] = DEFAULT_BURST_ALGOS,
    seeds: Sequence[int] = tuple(range(5)),
    *,
    _shared: Optional[Dict] = None,
) -> FigureData:
    """Figure 4: average NME vs node count under the burst workload."""
    results = _shared if _shared is not None else burst_sweep(
        n_values, algorithms, seeds
    )
    return FigureData(
        figure="Figure 4",
        x_label="N",
        y_label="messages per CS (NME)",
        x=list(n_values),
        series=_reduce(results, "nme"),
    )


def figure5(
    n_values: Sequence[int] = tuple(range(5, 51, 5)),
    algorithms: Sequence[str] = DEFAULT_BURST_ALGOS,
    seeds: Sequence[int] = tuple(range(5)),
    *,
    _shared: Optional[Dict] = None,
) -> FigureData:
    """Figure 5: average response time vs node count (burst)."""
    results = _shared if _shared is not None else burst_sweep(
        n_values, algorithms, seeds
    )
    return FigureData(
        figure="Figure 5",
        x_label="N",
        y_label="response time",
        x=list(n_values),
        series=_reduce(results, "mean_response_time"),
    )


# ----------------------------------------------------------------------
# Figures 6 & 7: Poisson workload at N=30, sweep 1/λ
# ----------------------------------------------------------------------
def lambda_sweep(
    inv_lambdas: Sequence[float] = (1, 2, 5, 10, 15, 20, 25, 30),
    algorithms: Sequence[str] = DEFAULT_BURST_ALGOS,
    n_nodes: int = 30,
    seeds: Sequence[int] = tuple(range(3)),
    horizon: float = 20_000.0,
    *,
    cs_time: Optional[Callable] = None,
    delay_model=None,
) -> Dict[str, Dict[float, List[RunResult]]]:
    """Run the Figure 6/7 workload; results[algo][1/λ] = runs.

    Requests stop arriving at ``horizon``; in-flight requests drain
    (bounded at 3× horizon as a liveness backstop).  ``cs_time`` and
    ``delay_model`` parameterise the sweep exactly as in
    :func:`burst_sweep`, mirrored by the parallel twin.
    """
    out: Dict[str, Dict[float, List[RunResult]]] = {}
    for algo in algorithms:
        per_x: Dict[float, List[RunResult]] = {}
        for inv_lambda in inv_lambdas:
            runs = []
            for seed in seeds:
                scenario = Scenario(
                    algorithm=algo,
                    n_nodes=n_nodes,
                    arrivals=PoissonArrivals.from_mean_interarrival(
                        float(inv_lambda)
                    ),
                    seed=seed,
                    cs_time=(
                        cs_time if cs_time is not None
                        else constant_cs_time(TC)
                    ),
                    delay_model=delay_model,
                    issue_deadline=horizon,
                    drain_deadline=horizon * 3,
                )
                runs.append(run_scenario(scenario))
            per_x[float(inv_lambda)] = runs
        out[algo] = per_x
    return out


def figure6(
    inv_lambdas: Sequence[float] = (1, 2, 5, 10, 15, 20, 25, 30),
    algorithms: Sequence[str] = ("rcv", "maekawa"),
    n_nodes: int = 30,
    seeds: Sequence[int] = tuple(range(3)),
    horizon: float = 20_000.0,
    *,
    _shared: Optional[Dict] = None,
) -> FigureData:
    """Figure 6: NME vs 1/λ at N=30 (RCV vs Maekawa)."""
    results = _shared if _shared is not None else lambda_sweep(
        inv_lambdas, algorithms, n_nodes, seeds, horizon
    )
    return FigureData(
        figure="Figure 6",
        x_label="1/lambda",
        y_label="messages per CS (NME)",
        x=[float(v) for v in inv_lambdas],
        series=_reduce(results, "nme"),
    )


def figure7(
    inv_lambdas: Sequence[float] = (1, 2, 5, 10, 15, 20, 25, 30),
    algorithms: Sequence[str] = DEFAULT_BURST_ALGOS,
    n_nodes: int = 30,
    seeds: Sequence[int] = tuple(range(3)),
    horizon: float = 20_000.0,
    *,
    _shared: Optional[Dict] = None,
) -> FigureData:
    """Figure 7: response time vs 1/λ at N=30 (all four)."""
    results = _shared if _shared is not None else lambda_sweep(
        inv_lambdas, algorithms, n_nodes, seeds, horizon
    )
    return FigureData(
        figure="Figure 7",
        x_label="1/lambda",
        y_label="response time",
        x=[float(v) for v in inv_lambdas],
        series=_reduce(results, "mean_response_time"),
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
) -> Dict[str, Dict[str, Dict[int, List[RunResult]]]]:
    """Run the burst grid under each fault model; results[algo][label][n].

    Cells run with ``require_completion=False``: losing liveness under
    loss/partition/crash is a *measured outcome* here (the completion
    rate quantifies it), not an error — campaign runs of the same
    cells keep the strict default and quarantine instead (see
    docs/faults.md).  Each (algo, n, fault) family is one
    :class:`~repro.engine.batch.CellTemplate` run under every seed.

    ``retx`` runs the whole grid over the reliable (ack/retransmit)
    channel — the with-retx columns of the resilience figures
    (docs/faults.md, "Recovery").
    """
    from repro.engine.batch import CellTemplate
    from repro.experiments.spec import CellSpec

    out: Dict[str, Dict[str, Dict[int, List[RunResult]]]] = {}
    for algo in algorithms:
        per_label: Dict[str, Dict[int, List[RunResult]]] = {}
        for n in n_values:
            for label, faults in grid(n):
                template = CellTemplate(
                    CellSpec(
                        algorithm=algo,
                        n_nodes=n,
                        seed=0,
                        workload=("burst", int(requests_per_node)),
                        faults=faults,
                        retx=retx,
                    )
                )
                runs = [
                    template.run(seed, require_completion=False)
                    for seed in seeds
                ]
                per_label.setdefault(label, {})[n] = runs
        out[algo] = per_label
    return out


# ----------------------------------------------------------------------
# §6.1 analytical table
# ----------------------------------------------------------------------
#: burst size of the §6.1 heavy-load runs (distinct from the
#: Figure 4/5 single-request burst — the parallel twins must
#: propagate it, not assume 1)
THEORY_REQUESTS_PER_NODE = 3


def theory_table(
    n_values: Sequence[int] = (9, 16, 25, 36, 49),
    algorithms: Sequence[str] = DEFAULT_BURST_ALGOS,
    seeds: Sequence[int] = tuple(range(3)),
    *,
    _shared: Optional[Dict] = None,
) -> List[dict]:
    """Measured heavy-load metrics vs the §6.1/related-work model.

    ``_shared`` accepts precomputed ``burst_sweep``-shaped results
    (e.g. from ``parallel_burst_sweep(..., requests_per_node=3)``),
    exactly like the ``figureN`` functions.
    """
    from repro.analysis.validate import compare_to_theory

    results = _shared if _shared is not None else burst_sweep(
        n_values,
        algorithms,
        seeds,
        requests_per_node=THEORY_REQUESTS_PER_NODE,
    )
    rows: List[dict] = []
    for algo in algorithms:
        for n in n_values:
            runs = results[algo][n]
            # Compare the seed-averaged run to the model.
            merged = runs[0]
            nme = summarize(r.nme for r in runs).mean
            sync = summarize(r.mean_sync_delay for r in runs).mean
            comparison = compare_to_theory(merged, tn=TN)
            comparison.measured_nme = nme
            comparison.measured_sync = sync
            rows.append(comparison.row())
    return rows
