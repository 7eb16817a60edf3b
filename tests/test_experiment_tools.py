"""Tests for experiment tooling: charts, parallel sweeps, result
persistence."""

import pytest

from repro.experiments import burst_sweep, figure4, lambda_sweep
from repro.experiments.charts import render_chart
from repro.experiments.figures import FigureData
from repro.experiments.parallel import CellSpec, run_cells
from repro.metrics.io import (
    FORMAT_VERSION,
    load_results,
    result_from_dict,
    result_to_dict,
    save_results,
)
from repro.metrics.summary import Summary
from repro.workload import BurstArrivals, Scenario, run_scenario


# ----------------------------------------------------------------------
# charts
# ----------------------------------------------------------------------
def _fig(series):
    n = len(next(iter(series.values())))
    return FigureData(
        figure="Figure T",
        x_label="N",
        y_label="y",
        x=list(range(n)),
        series={
            name: [Summary(n=1, mean=v, std=0.0, ci95=0.0) for v in values]
            for name, values in series.items()
        },
    )


def test_chart_renders_axes_and_legend():
    text = render_chart(_fig({"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]}))
    assert "Figure T" in text
    assert "o a" in text and "x b" in text
    assert "3.0" in text and "1.0" in text


def test_chart_marks_overlap():
    text = render_chart(_fig({"a": [1.0, 2.0], "b": [1.0, 5.0]}))
    assert "?" in text


def test_chart_flat_series_padded():
    text = render_chart(_fig({"a": [2.0, 2.0, 2.0]}))
    assert "3.0" in text and "1.0" in text  # padded bounds


def test_chart_empty_data():
    fig = FigureData(figure="F", x_label="x", y_label="y", x=[], series={})
    assert "(no data)" in render_chart(fig)


def test_chart_skips_nan_points():
    fig = _fig({"a": [1.0, 2.0]})
    fig.series["a"].append(Summary(n=0, mean=float("nan"), std=0.0, ci95=0.0))
    fig.x.append(2)
    text = render_chart(fig)
    assert "Figure T" in text


def test_real_figure_renders():
    fig = figure4(burst_sweep((5,), ("rcv",), (0,)))
    assert "rcv" in render_chart(fig)


# ----------------------------------------------------------------------
# parallel execution
# ----------------------------------------------------------------------
def test_cellspec_reconstructs_scenarios():
    spec = CellSpec(
        algorithm="rcv", n_nodes=5, seed=3, workload=("burst", 2)
    )
    scenario = spec.build_scenario()
    assert scenario.algorithm == "rcv"
    assert scenario.n_nodes == 5
    result = run_scenario(scenario)
    assert result.completed_count == 10


def test_cellspec_poisson_variant():
    spec = CellSpec(
        algorithm="centralized",
        n_nodes=4,
        seed=1,
        workload=("poisson", 20.0, 1_000.0),
    )
    result = run_scenario(spec.build_scenario())
    assert result.all_completed()


def test_cellspec_rejects_unknown_workload():
    with pytest.raises(ValueError):
        CellSpec("rcv", 3, 0, workload=("bogus",)).build_scenario()


def test_run_cells_sequential_fallback():
    specs = [CellSpec("rcv", 4, s, ("burst", 1)) for s in range(2)]
    results = run_cells(specs, max_workers=1)
    assert [r.seed for r in results] == [0, 1]


def test_parallel_matches_sequential_exactly():
    par = burst_sweep((8,), ("rcv",), (0, 1), max_workers=2)
    seq = burst_sweep((8,), ("rcv",), (0, 1), max_workers=1)
    assert [result_to_dict(r) for r in par["rcv"][8]] == [
        result_to_dict(r) for r in seq["rcv"][8]
    ]


def test_lambda_sweep_shape():
    out = lambda_sweep((5, 25.0), ("rcv",), 5, (0,), 500.0, max_workers=2)
    assert set(out) == {"rcv"}
    assert list(out["rcv"]) == [5.0, 25.0]  # keyed by float(1/lambda)
    assert len(out["rcv"][5.0]) == 1


def test_default_pool_is_sized_by_the_cpus_this_process_may_use(monkeypatch):
    """A process pinned to one CPU of a many-CPU host (taskset, a
    container's cpuset) must run its cells in-process: a pool sized by
    ``os.cpu_count()`` would oversubscribe the one CPU it has."""
    import concurrent.futures

    from repro.experiments import parallel

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was created on a one-CPU affinity")

    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 64)
    if hasattr(parallel.os, "process_cpu_count"):
        monkeypatch.setattr(parallel.os, "process_cpu_count", lambda: 1)
    else:
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
    # run_cells imports the pool class where it creates the pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    specs = [CellSpec("rcv", 4, s, ("burst", 1)) for s in range(3)]
    assert [r.seed for r in run_cells(specs)] == [0, 1, 2]
    with pytest.raises(AssertionError, match="pool was created"):
        run_cells(specs, max_workers=2)  # the guard itself works


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def _sample_result():
    return run_scenario(
        Scenario(algorithm="rcv", n_nodes=5, arrivals=BurstArrivals(), seed=9)
    )


def test_result_roundtrip_dict():
    r = _sample_result()
    back = result_from_dict(result_to_dict(r))
    assert back.algorithm == r.algorithm
    assert back.messages_total == r.messages_total
    assert back.nme == r.nme
    assert back.mean_response_time == r.mean_response_time
    assert len(back.records) == len(r.records)
    assert back.extra == r.extra


def test_save_and_load_file(tmp_path):
    results = [_sample_result()]
    path = tmp_path / "runs.json"
    save_results(path, results)
    loaded = load_results(path)
    assert len(loaded) == 1
    assert loaded[0].nme == results[0].nme


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 999, "results": []}')
    with pytest.raises(ValueError, match="version"):
        load_results(path)


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
def test_cli_chart_flag(capsys, monkeypatch):
    from repro import cli

    # shrink the sweep so the CLI test stays fast
    monkeypatch.setattr(
        cli,
        "_figure_args",
        lambda args: {
            "burst": dict(n_values=(5,), seeds=(0,)),
            "lam": dict(inv_lambdas=(5,), seeds=(0,), horizon=300.0),
        },
    )
    assert cli.main(["fig4", "--chart"]) == 0
    out = capsys.readouterr().out
    assert "o rcv" in out


def test_cli_parallel_and_save(capsys, monkeypatch, tmp_path):
    """On a multi-CPU host the figure commands fan out over a pool,
    with no flag asking for it, and --save still gets every run."""
    import concurrent.futures

    from repro import cli
    from repro.experiments import parallel

    pools = []
    real_pool = concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        lambda **kwargs: pools.append(kwargs) or real_pool(**kwargs),
    )
    monkeypatch.setattr(
        cli,
        "_figure_args",
        lambda args: {
            "burst": dict(n_values=(5,), seeds=(0,)),
            "lam": dict(inv_lambdas=(5,), seeds=(0,), horizon=300.0),
        },
    )
    out_file = tmp_path / "raw.json"
    assert cli.main(["fig4", "--save", str(out_file)]) == 0
    assert pools == [{"max_workers": 2}]
    assert out_file.exists()
    loaded = load_results(out_file)
    assert loaded and all(r.algorithm for r in loaded)
