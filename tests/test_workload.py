"""Tests for arrival processes, the driver, and the runner."""

import random

import pytest

from repro.registry import register_algorithm
from repro.workload import (
    BurstArrivals,
    PoissonArrivals,
    Scenario,
    TraceArrivals,
    run_scenario,
)
from repro.workload.runner import IncompleteRunError
from repro.workload.scenario import constant_cs_time


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
def test_burst_single_request_per_node():
    b = BurstArrivals()
    rng = random.Random(0)
    assert b.first_delay(0, rng) == 0.0
    assert b.next_delay(0, rng) is None


def test_burst_multiple_rounds_back_to_back():
    b = BurstArrivals(requests_per_node=3)
    rng = random.Random(0)
    assert b.first_delay(1, rng) == 0.0
    assert b.next_delay(1, rng) == 0.0
    assert b.next_delay(1, rng) == 0.0
    assert b.next_delay(1, rng) is None


def test_burst_validation():
    with pytest.raises(ValueError):
        BurstArrivals(requests_per_node=0)
    with pytest.raises(ValueError):
        BurstArrivals(start=-1.0)


def test_poisson_mean_interarrival():
    p = PoissonArrivals.from_mean_interarrival(20.0)
    rng = random.Random(1)
    samples = [p.next_delay(0, rng) for _ in range(4000)]
    assert abs(sum(samples) / len(samples) - 20.0) < 1.0


def test_poisson_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(0.0)
    with pytest.raises(ValueError):
        PoissonArrivals.from_mean_interarrival(-2.0)


def test_trace_arrivals_follow_clock():
    t = TraceArrivals({0: [10.0, 30.0], 1: [5.0]})
    now = [0.0]
    t.bind_clock(lambda: now[0])
    rng = random.Random(0)
    assert t.first_delay(0, rng) == 10.0
    now[0] = 25.0
    assert t.next_delay(0, rng) == 5.0  # 30 - 25
    assert t.next_delay(0, rng) is None
    assert t.first_delay(2, rng) is None  # node without a trace


def test_trace_arrivals_past_times_fire_immediately():
    t = TraceArrivals({0: [1.0, 2.0]})
    now = [50.0]
    t.bind_clock(lambda: now[0])
    rng = random.Random(0)
    assert t.first_delay(0, rng) == 0.0
    assert t.next_delay(0, rng) == 0.0


def test_trace_arrivals_requires_clock():
    t = TraceArrivals({0: [1.0]})
    with pytest.raises(RuntimeError):
        t.first_delay(0, random.Random(0))


# ----------------------------------------------------------------------
# scenario / runner
# ----------------------------------------------------------------------
def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(algorithm="rcv", n_nodes=0, arrivals=BurstArrivals())


def test_constant_cs_time():
    fn = constant_cs_time(7.5)
    assert fn(random.Random(0)) == 7.5


def test_issue_deadline_caps_request_issue():
    result = run_scenario(
        Scenario(
            algorithm="centralized",
            n_nodes=4,
            arrivals=PoissonArrivals(rate=1 / 20.0),
            seed=0,
            issue_deadline=500.0,
            drain_deadline=5_000.0,
        )
    )
    assert all(r.request_time <= 500.0 for r in result.records)
    assert result.all_completed()


@pytest.mark.parametrize("field", ["issue_deadline", "drain_deadline"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -5.0])
def test_scenario_refuses_a_deadline_no_run_can_reach(field, bad):
    """A NaN deadline used to be a run that never ends, not an error."""
    with pytest.raises(ValueError, match=field):
        Scenario("rcv", 4, PoissonArrivals(rate=0.1), **{field: bad})
    Scenario("rcv", 4, PoissonArrivals(rate=0.1), **{field: 0.0})


def test_runner_aggregates_protocol_counters():
    result = run_scenario(
        Scenario(algorithm="rcv", n_nodes=5, arrivals=BurstArrivals(), seed=0)
    )
    assert result.extra["rm_launched"] == 5
    assert "nonl_inconsistencies" in result.extra


def test_runner_raises_on_liveness_failure():
    """A deliberately broken algorithm (never grants) must surface as
    IncompleteRunError, not as silent partial metrics."""
    from repro.mutex.base import MutexNode

    class Stuck(MutexNode):
        algorithm_name = "stuck"

        def _do_request(self):
            pass  # never grants

        def _do_release(self):  # pragma: no cover
            pass

        def on_message(self, src, message):  # pragma: no cover
            pass

    register_algorithm("stuck-test", Stuck)
    with pytest.raises(IncompleteRunError) as exc_info:
        run_scenario(
            Scenario(
                algorithm="stuck-test",
                n_nodes=3,
                arrivals=BurstArrivals(),
                seed=0,
                drain_deadline=1_000.0,
            )
        )
    assert exc_info.value.result.completed_count == 0


def test_runner_partial_ok_when_not_required():
    result = run_scenario(
        Scenario(
            algorithm="stuck-test" if "stuck-test" in _registered() else "rcv",
            n_nodes=3,
            arrivals=BurstArrivals(),
            seed=0,
            drain_deadline=1_000.0,
        ),
        require_completion=False,
    )
    assert result.issued_count == 3


def _registered():
    from repro.registry import ALGORITHMS

    return ALGORITHMS


def test_deterministic_across_python_runs():
    """Seeds must fully determine results (stable derivation)."""
    results = [
        run_scenario(
            Scenario(
                algorithm="rcv", n_nodes=7, arrivals=BurstArrivals(), seed=11
            )
        ).messages_total
        for _ in range(2)
    ]
    assert results[0] == results[1]
