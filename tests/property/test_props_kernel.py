"""Property-based tests for the kernel's one event loop.

``run()``, ``run(until=)`` and ``step()`` share a single loop body, so
stopping at a horizon and resuming must be invisible: the same
callbacks fire at the same ``now`` whichever way the run is cut.  That
matters beyond the kernel — ``RunResult.horizon`` is ``sim.now``, so a
cancelled timer left at the tail of the heap must not move the clock.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Simulator

# A coarse time grid, so equal firing times and events landing exactly
# on the split point are common rather than measure-zero.
_times = st.integers(min_value=0, max_value=12).map(float)

_ops = st.lists(
    st.fixed_dictionaries(
        {
            "delay": _times,
            "fast": st.booleans(),
            # cancelled before the run starts (handle path only)
            "cancelled": st.booleans(),
            # when it fires: schedule a fast child this much later ...
            "child": st.none() | _times,
            # ... and cancel this other op's handle, if it has one
            "cancels": st.none() | st.integers(min_value=0, max_value=30),
        }
    ),
    max_size=30,
)


def _build(ops):
    """One simulator loaded with ``ops``; returns it with the firing
    log and the set of ops cancelled up front."""
    sim = Simulator()
    log = []
    handles = {}

    def fire(i, op):
        log.append((i, sim.now, sim.events_run))
        if op["child"] is not None:
            sim.schedule_fast(
                op["child"],
                lambda: log.append((("child", i), sim.now, sim.events_run)),
            )
        target = handles.get(op["cancels"])
        if target is not None:
            target.cancel()

    for i, op in enumerate(ops):
        callback = lambda i=i, op=op: fire(i, op)
        if op["fast"]:
            sim.schedule_fast(op["delay"], callback)
        else:
            handles[i] = sim.schedule(op["delay"], callback)
    dead = {i for i, op in enumerate(ops) if not op["fast"] and op["cancelled"]}
    for i in dead:
        handles[i].cancel()
    return sim, log, dead


@settings(max_examples=300, deadline=None)
@given(ops=_ops, split=_times)
# the whole tail cancelled, one of them exactly at the split
@example(
    ops=[
        {"delay": 2.0, "fast": True, "cancelled": False, "child": None, "cancels": None},
        {"delay": 5.0, "fast": False, "cancelled": True, "child": None, "cancels": None},
        {"delay": 9.0, "fast": False, "cancelled": True, "child": None, "cancels": None},
    ],
    split=5.0,
)
def test_run_until_then_run_equals_run(ops, split):
    whole, whole_log, _ = _build(ops)
    whole.run()

    sim, log, dead = _build(ops)
    loaded = {entry[1]: entry for entry in sim._heap}
    assert sim.run(until=split) == split == sim.now

    # First half: everything due fired — an event at exactly ``split``
    # included — and nothing beyond it did.
    assert all(t <= split for _, t, _ in log)
    fired = {i for i, _, _ in log}
    for i, op in enumerate(ops):
        if op["delay"] <= split and i not in dead:
            assert i in fired or _cancelled_by_an_earlier_op(ops, log, i)
    # What is not due yet sits in the heap as the very tuple that was
    # pushed (same seq), so the resumed run orders it as before.
    for entry in sim._heap:
        assert entry[0] > split
        if entry[1] in loaded:
            assert entry is loaded[entry[1]]

    sim.run()
    assert log == whole_log
    assert sim.events_run == whole.events_run == len(log)
    # A cancelled tail advances neither the clock nor the count: time
    # stops at the last event that actually ran (or at the split).
    last_fired = max((t for _, t, _ in log), default=0.0)
    assert whole.now == last_fired
    assert sim.now == max(last_fired, split)
    assert sim.pending == whole.pending == 0


def _cancelled_by_an_earlier_op(ops, log, i):
    return any(
        isinstance(j, int) and ops[j]["cancels"] == i and not ops[i]["fast"]
        for j, _, _ in log
    )


@settings(max_examples=100, deadline=None)
@given(ops=_ops)
def test_stepping_equals_run(ops):
    whole, whole_log, _ = _build(ops)
    whole.run()

    sim, log, _ = _build(ops)
    steps = 0
    while sim.step():
        steps += 1
    assert log == whole_log
    assert steps == sim.events_run == whole.events_run
    assert sim.now == whole.now
