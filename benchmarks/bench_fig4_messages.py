"""FIG4 — messages per CS vs node count (paper Figure 4).

Burst workload: all N nodes request once at t=0; N swept 5..50.
Expected shape (paper §6.2): RCV lowest of the four at scale,
Broadcast ≈ N, Maekawa ≈ 3–5·√N between, Ricart–Agrawala = 2(N−1)
highest.
"""

import pytest

from benchmarks.conftest import report
from repro.experiments import burst_sweep, figure4, render_figure

N_VALUES = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)
SEEDS = (0, 1, 2)


def test_fig4_regenerates(benchmark):
    results = benchmark.pedantic(
        lambda: burst_sweep(n_values=N_VALUES, seeds=SEEDS),
        rounds=1,
        iterations=1,
    )
    fig = figure4(results)
    report(render_figure(fig))

    # Shape assertions — the reproduction criteria from DESIGN.md.
    last = N_VALUES[-1]
    idx = fig.x.index(last)
    rcv = fig.series["rcv"][idx].mean
    maekawa = fig.series["maekawa"][idx].mean
    ricart = fig.series["ricart_agrawala"][idx].mean
    broadcast = fig.series["broadcast"][idx].mean
    assert rcv < broadcast < ricart, "RCV must send the fewest at N=50"
    assert rcv < maekawa
    assert ricart == pytest.approx(2 * (last - 1))
