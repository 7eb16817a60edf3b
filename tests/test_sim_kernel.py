"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import (
    EventBudgetExceeded,
    Handle,
    SimulationError,
    Simulator,
)


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.events_run == 0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_equal_times_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for tag in range(5):
        sim.schedule(1.0, lambda tag=tag: fired.append(tag))
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.schedule(2.0, lambda: fired.append(("inner", sim.now)))

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == [("outer", 1.0), ("inner", 3.0)]


def test_zero_delay_event_runs_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [1.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


@pytest.mark.parametrize("fast", [False, True], ids=["schedule", "schedule_fast"])
@pytest.mark.parametrize("delay", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_delay_rejected(fast, delay):
    """A NaN or infinite delay would fire out of time order (NaN
    compares false both ways) and leave the horizon at nan or inf."""
    sim = Simulator()
    schedule = sim.schedule_fast if fast else sim.schedule
    with pytest.raises(ValueError):
        schedule(delay, lambda: None)
    assert sim.pending == 0
    assert sim.run() == 0.0


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    assert handle.active
    handle.cancel()
    assert handle.cancelled and not handle.active
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled


def test_run_until_stops_and_advances_time():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    sim.run()  # resume: remaining event still fires
    assert fired == [1, 10]


def test_run_until_exact_boundary_inclusive():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append(1))
    sim.run(until=5.0)
    assert fired == [1]


def test_event_budget_exceeded():
    sim = Simulator(max_events=10)

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(1.0, forever)
    with pytest.raises(EventBudgetExceeded):
        sim.run()


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_drain_cancelled_compacts_heap():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    for h in handles[:7]:
        h.cancel()
    assert sim.pending == 10  # lazily deleted: still in the heap
    assert sim._compact() == 7
    assert sim.pending == 3


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def recurse():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, recurse)
    sim.run()
    assert len(errors) == 1


def test_callback_exception_propagates_and_time_is_set():
    sim = Simulator()

    def boom():
        raise RuntimeError("boom")

    sim.schedule(2.0, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.now == 2.0


# ----------------------------------------------------------------------
# run(until=...) vs lazy deletion (regression: entries were scanned
# twice by the old peek-then-step loop)
# ----------------------------------------------------------------------
def test_run_until_landing_exactly_on_cancelled_event_time():
    sim = Simulator()
    fired = []
    doomed = sim.schedule(5.0, lambda: fired.append("cancelled"))
    sim.schedule(5.0, lambda: fired.append("live"))
    sim.schedule(9.0, lambda: fired.append("late"))
    doomed.cancel()
    sim.run(until=5.0)
    assert fired == ["live"]
    assert sim.now == 5.0
    sim.run()
    assert fired == ["live", "late"]


def test_run_until_with_only_cancelled_events_left():
    sim = Simulator()
    handle = sim.schedule(5.0, lambda: None)
    handle.cancel()
    assert sim.run(until=5.0) == 5.0
    assert sim.events_run == 0
    assert sim.pending == 0  # the lazily-deleted entry was dropped


def test_run_until_does_not_fire_event_beyond_horizon():
    sim = Simulator()
    fired = []
    # A cancelled event sits between the horizon and the live event.
    sim.schedule(6.0, lambda: fired.append("mid")).cancel()
    sim.schedule(7.0, lambda: fired.append("beyond"))
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    sim.run()
    assert fired == ["beyond"]
    assert sim.now == 7.0


# ----------------------------------------------------------------------
# fast path (handle-free fire-once events)
# ----------------------------------------------------------------------
def test_schedule_fast_fires_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule_fast(3.0, lambda: fired.append("c"))
    sim.schedule_fast(1.0, lambda: fired.append("a"))
    sim.schedule_fast(2.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.events_run == 3


def test_schedule_fast_interleaves_deterministically_with_handles():
    # Both paths share the seq counter: equal times fall back to
    # global insertion order regardless of which path was used.
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("h1"))
    sim.schedule_fast(1.0, lambda: fired.append("f1"))
    sim.schedule(1.0, lambda: fired.append("h2"))
    sim.schedule_fast(1.0, lambda: fired.append("f2"))
    sim.run()
    assert fired == ["h1", "f1", "h2", "f2"]


def test_schedule_fast_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule_fast(-1.0, lambda: None)


def test_schedule_fast_counts_against_event_budget():
    sim = Simulator(max_events=10)

    def forever():
        sim.schedule_fast(1.0, forever)

    sim.schedule_fast(1.0, forever)
    with pytest.raises(EventBudgetExceeded):
        sim.run()


def test_step_executes_fast_events():
    sim = Simulator()
    fired = []
    sim.schedule_fast(1.0, lambda: fired.append(1))
    assert sim.step() is True
    assert fired == [1]
    assert sim.step() is False


# ----------------------------------------------------------------------
# automatic heap compaction
# ----------------------------------------------------------------------
def test_heap_compacts_automatically_when_mostly_cancelled():
    sim = Simulator()
    keep = [sim.schedule(1e6 + i, lambda: None) for i in range(10)]
    doomed = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
    assert sim.pending == 110
    for h in doomed:
        h.cancel()
    # The 64th cancel tripped the >50%-dead threshold and compacted
    # (64 cancelled of 110 entries); the cancels after that point are
    # lazily deleted again until the next threshold crossing.
    assert sim.pending == len(keep) + (len(doomed) - 64)
    assert all(h.active for h in keep)
    assert sim._compact() == len(doomed) - 64
    assert sim.pending == len(keep)


def test_no_compaction_below_cancelled_floor():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(20)]
    for h in handles[:15]:
        h.cancel()
    # 15 < COMPACT_MIN_CANCELLED: lazy deletion only.
    assert sim.pending == 20
    assert sim._compact() == 15
    assert sim.pending == 5


def test_events_run_is_accurate_inside_callbacks():
    sim = Simulator()
    seen = []
    for _ in range(3):
        sim.schedule_fast(1.0, lambda: seen.append(sim.events_run))
    sim.run()
    assert seen == [1, 2, 3]


def test_nested_step_counts_against_budget():
    # Events executed via step() from inside a run() callback must
    # still count toward max_events.
    sim = Simulator(max_events=10)

    def outer():
        sim.schedule_fast(0.0, lambda: None)
        sim.step()  # drain the inner event immediately
        sim.schedule_fast(1.0, outer)

    sim.schedule_fast(1.0, outer)
    with pytest.raises(EventBudgetExceeded):
        sim.run()
    assert sim.events_run == 11


def test_cancel_after_fire_does_not_corrupt_compaction_accounting():
    sim = Simulator()
    fired = []
    h = sim.schedule(1.0, lambda: fired.append(1))
    sim.run()
    h.cancel()  # idempotent no-op: the event already fired
    assert fired == [1]
    assert sim._cancelled_pending == 0


# ----------------------------------------------------------------------
# the watch: a question asked as time passes, not an event
# ----------------------------------------------------------------------
def test_a_run_that_drains_never_asks_the_watch():
    sim = Simulator()
    asked = []
    sim.schedule_fast(3.0, lambda: None)
    sim.schedule(8.0, lambda: None).cancel()  # no sign of time passing
    sim.watch(5.0, lambda: asked.append(sim.now) or 10.0)
    assert sim.run() == 3.0
    assert asked == [] and sim.events_run == 1


def test_the_watch_sees_time_pass_and_may_end_the_run():
    sim = Simulator()
    fired, asked = [], []
    for t in (1.0, 4.0, 9.0, 12.0):
        sim.schedule_fast(t, lambda t=t: fired.append(t))

    def ask():
        asked.append(sim.now)
        return None if len(asked) == 2 else sim.now + 5.0

    sim.watch(3.0, ask)
    # ended at the second instant, short of ``until``: no advance
    assert sim.run(until=20.0) == 8.0
    assert asked == [3.0, 8.0] and fired == [1.0, 4.0]
    assert sim.events_run == 2 and sim.pending == 2
    assert sim.run() == 12.0  # the watch ended with the run it ended
    assert fired == [1.0, 4.0, 9.0, 12.0]


def test_a_watch_beyond_until_is_not_asked():
    sim = Simulator()
    sim.schedule_fast(10.0, lambda: None)
    sim.watch(6.0, lambda: pytest.fail("asked"))
    assert sim.run(until=5.0) == 5.0
