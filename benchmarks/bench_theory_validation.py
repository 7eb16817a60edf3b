"""T-ANL — measured vs closed-form table (paper §6.1 + related work).

For each algorithm and system size, the saturated burst workload is
measured and compared against the analytical bounds encoded in
:mod:`repro.analysis.theory`: NME bands and synchronization delays.
This regenerates the quantitative claims of §6.1 (RCV sync delay =
Tn, heavy-load message band) and the §1–2 complexity table.
"""

from benchmarks.conftest import report
from repro.experiments import burst_sweep, render_rows, theory_table
from repro.experiments.figures import THEORY_REQUESTS_PER_NODE

N_VALUES = (9, 16, 25, 36, 49)
ALGOS = ("rcv", "maekawa", "ricart_agrawala", "broadcast")


def test_theory_table_regenerates(benchmark):
    rows = benchmark.pedantic(
        lambda: theory_table(
            burst_sweep(
                N_VALUES,
                ALGOS,
                (0, 1),
                requests_per_node=THEORY_REQUESTS_PER_NODE,
            )
        ),
        rounds=1,
        iterations=1,
    )
    report(render_rows(rows, title="Measured vs closed-form (paper §6.1)"))
    bad = [r for r in rows if not (r["nme ok"] and r["sync ok"])]
    assert not bad, f"measurements outside analytical bounds: {bad}"
