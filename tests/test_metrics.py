"""Tests for records, the collector, and summaries."""

import math

import pytest

from repro.metrics.collector import MetricsCollector
from repro.metrics.records import CsRecord, RunResult
from repro.metrics.summary import Summary, summarize


# ----------------------------------------------------------------------
# CsRecord
# ----------------------------------------------------------------------
def test_record_derived_times():
    rec = CsRecord(node_id=1, request_time=10.0, grant_time=25.0, release_time=35.0)
    assert rec.completed
    assert rec.waiting_time == 15.0
    assert rec.response_time == 25.0  # request -> exit, paper definition
    assert rec.cs_duration == 10.0


def test_record_incomplete_times_are_none():
    rec = CsRecord(node_id=1, request_time=10.0)
    assert not rec.completed
    assert rec.waiting_time is None
    assert rec.response_time is None
    assert rec.cs_duration is None


# ----------------------------------------------------------------------
# MetricsCollector
# ----------------------------------------------------------------------
def test_collector_lifecycle():
    t = [0.0]
    c = MetricsCollector(lambda: t[0])
    c.on_requested(0)
    t[0] = 5.0
    c.on_granted(0)
    t[0] = 15.0
    c.on_released(0)
    (rec,) = c.records
    assert (rec.request_time, rec.grant_time, rec.release_time) == (0.0, 5.0, 15.0)
    assert c.pending_count == 0


def test_collector_rejects_double_request():
    c = MetricsCollector(lambda: 0.0)
    c.on_requested(0)
    with pytest.raises(RuntimeError):
        c.on_requested(0)


def test_collector_rejects_orphan_grant_and_release():
    c = MetricsCollector(lambda: 0.0)
    with pytest.raises(RuntimeError):
        c.on_granted(0)
    with pytest.raises(RuntimeError):
        c.on_released(0)


def test_has_waiters_only_counts_ungranted():
    c = MetricsCollector(lambda: 0.0)
    assert not c.has_waiters()
    c.on_requested(0)
    assert c.has_waiters()
    c.on_granted(0)
    assert not c.has_waiters()  # granted => executing, not waiting


# ----------------------------------------------------------------------
# RunResult
# ----------------------------------------------------------------------
def _result_with(records, messages=10):
    return RunResult(
        algorithm="x",
        n_nodes=3,
        seed=0,
        horizon=100.0,
        records=records,
        messages_total=messages,
    )


def test_nme_divides_by_completed():
    recs = [
        CsRecord(0, 0.0, 1.0, 2.0),
        CsRecord(1, 0.0, 3.0, 4.0),
        CsRecord(2, 0.0),  # incomplete: excluded from the denominator
    ]
    r = _result_with(recs, messages=10)
    assert r.completed_count == 2
    assert r.nme == 5.0


def test_nme_nan_when_nothing_completed():
    r = _result_with([CsRecord(0, 0.0)])
    assert math.isnan(r.nme)
    assert math.isnan(r.mean_response_time)


def test_all_completed_logic():
    assert not _result_with([]).all_completed()
    assert _result_with([CsRecord(0, 0.0, 1.0, 2.0)]).all_completed()
    assert not _result_with(
        [CsRecord(0, 0.0, 1.0, 2.0), CsRecord(1, 0.0)]
    ).all_completed()


def test_summary_row_keys():
    row = _result_with([CsRecord(0, 0.0, 1.0, 2.0)]).summary_row()
    assert set(row) == {
        "algorithm", "n", "requests", "completed", "nme", "rt", "wait", "sync",
    }


# ----------------------------------------------------------------------
# summarize
# ----------------------------------------------------------------------
def test_summarize_basic_stats():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.n == 4
    assert s.mean == 2.5
    assert s.low < 2.5 < s.high


def test_summarize_ignores_nan():
    s = summarize([1.0, float("nan"), 3.0])
    assert s.n == 2
    assert s.mean == 2.0


def test_summarize_single_and_empty():
    one = summarize([5.0])
    assert (one.n, one.mean, one.ci95) == (1, 5.0, 0.0)
    empty = summarize([])
    assert empty.n == 0 and math.isnan(empty.mean)
    assert str(empty) == "nan"


def test_summary_str_format():
    assert str(Summary(n=3, mean=2.0, std=0.5, ci95=0.25)) == "2.00±0.25"


# scipy.stats.t.ppf(0.975, df), written down once so the interval no
# longer depends on what the host has installed.
T975 = {
    1: 12.706204736174694,
    2: 4.302652729749462,
    3: 3.1824463052837078,
    5: 2.5705818356363146,
    10: 2.228138851986274,
    30: 2.0422724563012378,
    100: 1.9839715185235518,
    1000: 1.9623390808264083,
}


@pytest.mark.parametrize("df, expected", sorted(T975.items()))
def test_t_quantile_matches_pinned_literals(df, expected):
    from repro.metrics.summary import t_quantile_975

    assert t_quantile_975(df) == pytest.approx(expected, rel=1e-9)


def test_t_quantile_decreases_towards_the_normal_quantile():
    from repro.metrics.summary import t_quantile_975

    grid = list(range(1, 401)) + [10**k // d for k in (3, 4, 5, 6) for d in (2, 1)]
    values = [t_quantile_975(df) for df in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 1.959964  # the limit, approached from above


def test_t_quantile_agrees_with_scipy_where_scipy_exists():
    stats = pytest.importorskip("scipy.stats")
    from repro.metrics.summary import t_quantile_975

    for df in range(1, 401):
        assert t_quantile_975(df) == pytest.approx(
            float(stats.t.ppf(0.975, df)), rel=1e-10
        )


def test_summarize_pinned_values():
    s = summarize([1.0, float("nan"), 3.5, 2.25, 9.0, 4.75])
    assert s.n == 5
    assert s.mean == pytest.approx(4.1, rel=1e-12)
    assert s.std == pytest.approx(3.075101624336991, rel=1e-12)
    assert s.ci95 == pytest.approx(3.8182429777571576, rel=1e-9)
    assert str(s) == "4.10±3.82"
    assert summarize([]).n == 0 and summarize([7.0]).ci95 == 0.0


def test_interval_does_not_depend_on_scipy_being_importable(monkeypatch):
    """Two seeds, df=1: the Student-t interval is 6.5x the normal one,
    and it must be what a host without scipy (CI) prints too."""
    import sys

    with_scipy = summarize([5.0, 5.83]).ci95
    monkeypatch.setitem(sys.modules, "scipy", None)  # import scipy -> ImportError
    monkeypatch.setitem(sys.modules, "scipy.stats", None)
    assert summarize([5.0, 5.83]).ci95 == with_scipy
    assert with_scipy == pytest.approx(5.273074965512498, rel=1e-9)
