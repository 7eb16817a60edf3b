"""FIG6 — messages per CS vs inter-arrival time 1/λ at N=30
(paper Figure 6: RCV vs Maekawa).

Expected shape: RCV's NME *decreases* as load rises (small 1/λ) —
heavier contention means each exchange orders more requests — and
undercuts Maekawa at heavy load ("the heavier the system load is,
the better our algorithm outperforms the Maekawa in average NME").
"""

from benchmarks.conftest import report
from repro.experiments import figure6, lambda_sweep, render_figure

INV_LAMBDAS = (1, 2, 5, 10, 15, 20, 25, 30)
SEEDS = (0, 1)
HORIZON = 20_000.0


def test_fig6_regenerates(benchmark):
    results = benchmark.pedantic(
        lambda: lambda_sweep(
            INV_LAMBDAS,
            algorithms=("rcv", "maekawa"),
            n_nodes=30,
            seeds=SEEDS,
            horizon=HORIZON,
        ),
        rounds=1,
        iterations=1,
    )
    fig = figure6(results)
    report(render_figure(fig))

    heavy = fig.x.index(1.0)
    light = fig.x.index(30.0)
    rcv_heavy = fig.series["rcv"][heavy].mean
    rcv_light = fig.series["rcv"][light].mean
    maekawa_heavy = fig.series["maekawa"][heavy].mean
    assert rcv_heavy < rcv_light, "RCV messages must fall as load rises"
    assert rcv_heavy < maekawa_heavy, "RCV must beat Maekawa at heavy load"
