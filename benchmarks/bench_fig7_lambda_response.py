"""FIG7 — response time vs inter-arrival time 1/λ at N=30
(paper Figure 7: all four algorithms).

Expected shape: RCV "a little higher than the Broadcast and the
Ricart, much lower than the Maekawa's".
"""

from benchmarks.conftest import report
from repro.experiments import figure7, lambda_sweep, render_figure

INV_LAMBDAS = (1, 2, 5, 10, 15, 20, 25, 30)
ALGOS = ("rcv", "maekawa", "ricart_agrawala", "broadcast")
SEEDS = (0, 1)
HORIZON = 20_000.0


def test_fig7_regenerates(benchmark):
    results = benchmark.pedantic(
        lambda: lambda_sweep(
            INV_LAMBDAS, ALGOS, n_nodes=30, seeds=SEEDS, horizon=HORIZON
        ),
        rounds=1,
        iterations=1,
    )
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
