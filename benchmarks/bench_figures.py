"""Figures 4–7 and the §6.1 table, each sweep run once.

The burst sweep feeds Figures 4 and 5, the four-algorithm λ sweep
feeds Figure 7 and (its RCV and Maekawa series) Figure 6, and the
heavy-load burst sweep feeds the measured-vs-closed-form table.
pytest-benchmark times each sweep; the shape assertions are the
reproduction criteria, and the rendered tables are printed at the
end of the session (``benchmarks/conftest.py``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_figures.py --benchmark-only
"""

import pytest

from benchmarks.conftest import report
from repro.experiments import (
    burst_sweep,
    figure4,
    figure5,
    figure6,
    figure7,
    lambda_sweep,
    render_figure,
    render_rows,
    theory_table,
)
from repro.experiments.figures import THEORY_REQUESTS_PER_NODE

#: Figures 4–5: all N nodes request once at t=0, N swept 5..50
N_VALUES = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)
SEEDS = (0, 1, 2)

#: Figures 6–7: Poisson arrivals at N=30, the mean inter-arrival swept
INV_LAMBDAS = (1, 2, 5, 10, 15, 20, 25, 30)
LAMBDA_SEEDS = (0, 1)
HORIZON = 20_000.0

#: §6.1: the saturated burst at square node counts
THEORY_N_VALUES = (9, 16, 25, 36, 49)

#: the four algorithms every sweep here runs (paper names)
ALGOS = ("rcv", "maekawa", "ricart_agrawala", "broadcast")


def _once(benchmark, sweep):
    return benchmark.pedantic(sweep, rounds=1, iterations=1)


def test_fig4_and_fig5_regenerate(benchmark):
    """FIG4 — messages per CS vs node count.  Expected shape (paper
    §6.2): RCV lowest of the four at scale, Broadcast ≈ N, Maekawa ≈
    3–5·√N between, Ricart–Agrawala = 2(N−1) highest.

    FIG5 — response time vs node count, same sweep.  Expected shape:
    response time grows with N for all four algorithms; RCV comparable
    to Ricart/Broadcast (slightly above — its RM must roam before
    ordering) and below Maekawa, whose 2-hop synchronization delay
    compounds under the burst.
    """
    results = _once(
        benchmark,
        lambda: burst_sweep(n_values=N_VALUES, algorithms=ALGOS, seeds=SEEDS),
    )

    fig = figure4(results)
    report(render_figure(fig))
    last = N_VALUES[-1]
    idx = fig.x.index(last)
    rcv = fig.series["rcv"][idx].mean
    maekawa = fig.series["maekawa"][idx].mean
    ricart = fig.series["ricart_agrawala"][idx].mean
    broadcast = fig.series["broadcast"][idx].mean
    assert rcv < broadcast < ricart, "RCV must send the fewest at N=50"
    assert rcv < maekawa
    assert ricart == pytest.approx(2 * (last - 1))

    fig = figure5(results)
    report(render_figure(fig))
    idx = fig.x.index(N_VALUES[-1])
    rcv = fig.series["rcv"][idx].mean
    maekawa = fig.series["maekawa"][idx].mean
    broadcast = fig.series["broadcast"][idx].mean
    # Paper: "our response time is similar to the other three's";
    # Maekawa is the slowest of the four.
    assert rcv < maekawa
    assert rcv < broadcast * 1.5
    # Response grows with N (paper: both measures increase).
    first = fig.x.index(N_VALUES[0])
    assert fig.series["rcv"][idx].mean > fig.series["rcv"][first].mean


def test_fig6_and_fig7_regenerate(benchmark):
    """FIG6 — messages per CS vs 1/λ at N=30, RCV vs Maekawa.  Expected
    shape: RCV's NME *decreases* as load rises (small 1/λ) — heavier
    contention means each exchange orders more requests — and
    undercuts Maekawa at heavy load ("the heavier the system load is,
    the better our algorithm outperforms the Maekawa in average NME").

    FIG7 — response time vs 1/λ at N=30, all four, same sweep.
    Expected shape: RCV "a little higher than the Broadcast and the
    Ricart, much lower than the Maekawa's".
    """
    results = _once(
        benchmark,
        lambda: lambda_sweep(
            INV_LAMBDAS, ALGOS, n_nodes=30, seeds=LAMBDA_SEEDS, horizon=HORIZON
        ),
    )

    fig = figure6({algo: results[algo] for algo in ("rcv", "maekawa")})
    report(render_figure(fig))
    heavy = fig.x.index(1.0)
    light = fig.x.index(30.0)
    rcv_heavy = fig.series["rcv"][heavy].mean
    rcv_light = fig.series["rcv"][light].mean
    maekawa_heavy = fig.series["maekawa"][heavy].mean
    assert rcv_heavy < rcv_light, "RCV messages must fall as load rises"
    assert rcv_heavy < maekawa_heavy, "RCV must beat Maekawa at heavy load"

    fig = figure7(results)
    report(render_figure(fig))
    heavy = fig.x.index(1.0)
    rcv = fig.series["rcv"][heavy].mean
    maekawa = fig.series["maekawa"][heavy].mean
    ricart = fig.series["ricart_agrawala"][heavy].mean
    broadcast = fig.series["broadcast"][heavy].mean
    assert rcv < maekawa, "RCV must respond much faster than Maekawa"
    # "a little higher" than the fast pair — allow up to 25% above.
    fast = min(ricart, broadcast)
    assert rcv <= fast * 1.25


def test_theory_table_regenerates(benchmark):
    """T-ANL — measured vs closed-form (paper §6.1 + related work): for
    each algorithm and system size the saturated burst is measured
    against the bounds in :mod:`repro.analysis.theory` — NME bands and
    synchronization delays (RCV sync delay = Tn, the heavy-load
    message band, the §1–2 complexity table)."""
    rows = _once(
        benchmark,
        lambda: theory_table(
            burst_sweep(
                THEORY_N_VALUES,
                ALGOS,
                (0, 1),
                requests_per_node=THEORY_REQUESTS_PER_NODE,
            )
        ),
    )
    report(render_rows(rows, title="Measured vs closed-form (paper §6.1)"))
    bad = [r for r in rows if not (r["nme ok"] and r["sync ok"])]
    assert not bad, f"measurements outside analytical bounds: {bad}"
