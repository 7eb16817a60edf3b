"""FIG5 — response time vs node count (paper Figure 5).

Same burst workload as FIG4.  Expected shape: response time grows
with N for all four algorithms; RCV comparable to Ricart/Broadcast
(slightly above — its RM must roam before ordering) and below
Maekawa, whose 2-hop synchronization delay compounds under the burst.
"""

from benchmarks.conftest import report
from repro.experiments import burst_sweep, figure5, render_figure

N_VALUES = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)
SEEDS = (0, 1, 2)


def test_fig5_regenerates(benchmark):
    results = benchmark.pedantic(
        lambda: burst_sweep(n_values=N_VALUES, seeds=SEEDS),
        rounds=1,
        iterations=1,
    )
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
