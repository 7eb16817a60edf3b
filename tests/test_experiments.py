"""Tests for the experiment harness (small parameterizations)."""

import math

import pytest

from repro.experiments import (
    UnrepresentableScenarioError,
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

SMALL_NS = (5, 10)
SMALL_SEEDS = (0, 1)
SMALL_ALGOS = ("rcv", "broadcast")


def test_burst_sweep_shapes():
    results = burst_sweep(SMALL_NS, SMALL_ALGOS, SMALL_SEEDS)
    assert set(results) == set(SMALL_ALGOS)
    for per_n in results.values():
        assert set(per_n) == set(SMALL_NS)
        for runs in per_n.values():
            assert len(runs) == len(SMALL_SEEDS)
            assert all(r.all_completed() for r in runs)


def test_figures_4_and_5_share_sweep():
    results = burst_sweep(SMALL_NS, SMALL_ALGOS, SMALL_SEEDS)
    f4 = figure4(results)
    f5 = figure5(results)
    assert f4.x == list(SMALL_NS) and f5.x == list(SMALL_NS)
    for fig in (f4, f5):
        assert set(fig.series) == set(SMALL_ALGOS)
        for values in fig.series.values():
            assert len(values) == len(SMALL_NS)
            assert all(not math.isnan(v.mean) for v in values)


def test_figure4_rcv_beats_ricart_at_scale():
    """The paper's headline Figure 4 shape."""
    f4 = figure4(burst_sweep((20,), ("rcv", "ricart_agrawala"), (0, 1, 2)))
    rcv = f4.series["rcv"][0].mean
    ra = f4.series["ricart_agrawala"][0].mean
    assert rcv < ra


def test_figure6_and_7_shapes():
    results = lambda_sweep(
        (2, 10), SMALL_ALGOS, n_nodes=8, seeds=(0,), horizon=3_000
    )
    f6 = figure6(results)
    f7 = figure7(results)
    assert f6.x == [2.0, 10.0]
    for fig in (f6, f7):
        for values in fig.series.values():
            assert all(v.n >= 1 for v in values)


def test_figure_labels_each_series_with_the_sweeps_own_x():
    """A figure takes its x axis from the results it reduces.  It used
    to take it from a second ``n_values`` argument and zip that
    against the results' own order, so a sweep run as (10, 5) and
    rendered as (5, 10) printed the N=10 runs in the N=5 row."""
    results = burst_sweep((10, 5), SMALL_ALGOS, (0,))
    for fig, metric in (
        (figure4(results), "nme"),
        (figure5(results), "mean_response_time"),
    ):
        assert fig.x == [10, 5]
        for algo, values in fig.series.items():
            for x, value in zip(fig.x, values):
                (run,) = results[algo][x]
                assert value.mean == getattr(run, metric)
    # Broadcast sends N-1 messages per CS: the row labelled 10 says 9.
    rows = {row["N"]: row for row in figure4(results).as_rows()}
    assert rows[10]["broadcast"].startswith("9.00")
    assert rows[5]["broadcast"].startswith("4.00")
    # A results dict whose series disagree on key order still reads
    # each point by its x.
    results["broadcast"] = dict(reversed(results["broadcast"].items()))
    assert figure4(results).series["broadcast"][0].mean == 9.0


@pytest.mark.parametrize("max_workers", [1, 2])
def test_sweeps_reject_the_removed_scenario_object_keywords(max_workers):
    """The sequential sweeps took ``cs_time=<function>`` and
    ``delay_model=<object>``; passing either to today's sweeps must
    name the offending keyword, in-process and ahead of any pool —
    never run the default experiment instead."""
    from repro.net.delay import ExponentialDelay
    from repro.workload import uniform_cs_time

    with pytest.raises(TypeError, match="delay_model"):
        burst_sweep(
            (5,), ("rcv",), (0, 1),
            delay_model=ExponentialDelay(4.0, 1.0), max_workers=max_workers,
        )
    with pytest.raises(UnrepresentableScenarioError, match="cs_time"):
        lambda_sweep(
            (5.0,), ("rcv",), 4, (0, 1), 300.0,
            cs_time=uniform_cs_time(8.0, 12.0), max_workers=max_workers,
        )


def test_render_figure_contains_series_and_x():
    f4 = figure4(burst_sweep((5,), ("rcv",), (0,)))
    text = render_figure(f4)
    assert "Figure 4" in text and "rcv" in text and "5" in text


def test_render_rows_alignment_and_empty():
    rows = [{"a": 1, "b": "xy"}, {"a": 22.5, "c": True}]
    text = render_rows(rows, title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "b" in lines[1] and "c" in lines[1]
    assert "22.50" in text and "yes" in text
    assert "(no data)" in render_rows([], title="x")


def test_theory_table_rows():
    rows = theory_table(
        burst_sweep((9,), ("rcv", "maekawa"), (0,), requests_per_node=3)
    )
    assert [row["algorithm"] for row in rows] == ["rcv", "maekawa"]
    for row in rows:
        assert row["nme ok"], row
        assert row["sync ok"], row
