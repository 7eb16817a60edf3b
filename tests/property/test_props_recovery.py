"""Property tests for the reliable channel (retx) and recovery layer.

The fault-tolerance claim this PR makes precise: with the
ack/retransmit discipline armed, message-level faults stop being a
*liveness* hazard — every run under arbitrary drop/dup/reorder
intensity up to p = 0.3 completes all of its requests, while safety
(Theorem 1) keeps holding exactly as it did without retx.  Every
generated run has the SafetyMonitor armed, so a passing run IS the
mutual-exclusion check.

Determinism: the retransmit schedule (attempt times, ack-loss draws,
dedupe decisions) comes from the seeded ``net/retx`` stream and the
fault fabric's own stream, so a (spec, seed) pair must replay to the
identical result — counters included — or campaign caching breaks.

Purity: retx is opt-in.  ``retx=()`` builds the exact pre-retx stack,
and a ReliableChannel over a clean fabric must be delivery-invisible.
"""

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RCVConfig
from repro.engine.engine import run_scenario
from repro.experiments.parallel import CellSpec
from repro.metrics.io import result_to_dict
from repro.workload import BurstArrivals, Scenario

COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: constant-rto, 20-attempt discipline: at p = 0.3 the chance a
#: message exhausts every attempt is 0.3**21 ≈ 1e-11 — completion
#: failures in these tests are bugs, not bad luck.
RETX = ("retx", 5.0, 1.0, 20)


@st.composite
def fault_specs(draw):
    """Random composable drop/dup/reorder intensities (any of them
    may be absent; all-absent is the clean fabric)."""
    spec = []
    if draw(st.booleans()):
        spec.append(("drop", draw(st.floats(0.0, 0.3))))
    if draw(st.booleans()):
        spec.append(("dup", draw(st.floats(0.0, 0.3))))
    if draw(st.booleans()):
        spec.append(("reorder", draw(st.floats(0.0, 20.0))))
    return tuple(spec)


def _run(algorithm, n, seed, faults, retx=(), requests=1):
    spec = CellSpec(
        algorithm, n, seed, ("burst", requests), faults=faults, retx=retx
    )
    # The armed SafetyMonitor raises on any CS overlap during run().
    return run_scenario(spec.build_scenario(), require_completion=False)


@settings(**COMMON)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 10_000),
    faults=fault_specs(),
)
def test_rcv_with_retx_completes_under_any_fault_intensity(n, seed, faults):
    """The liveness half of the tentpole: what PR-7 could only
    quarantine (loss ⇒ wedged requesters), retx must finish."""
    result = _run("rcv", n, seed, faults, retx=RETX, requests=2)
    assert result.all_completed()
    if faults:
        assert result.extra["net_retx_giveups"] == 0


@settings(**COMMON)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 10_000),
    faults=fault_specs(),
)
def test_retx_schedule_replays_identically(n, seed, faults):
    """Same (spec, seed) → bit-for-bit the same result, including the
    retransmit/dedupe/ack-loss counters the reliable channel adds."""
    first = _run("rcv", n, seed, faults, retx=RETX, requests=2)
    second = _run("rcv", n, seed, faults, retx=RETX, requests=2)
    assert result_to_dict(first) == result_to_dict(second)
    assert [
        (r.node_id, r.grant_time) for r in first.records
    ] == [(r.node_id, r.grant_time) for r in second.records]


@settings(**COMMON)
@given(n=st.integers(2, 10), seed=st.integers(0, 10_000))
def test_retx_over_clean_fabric_is_delivery_invisible(n, seed):
    """With no faults to mask, the reliable channel must not perturb
    the run: same records as the bare stack, and every retx counter
    pinned at zero (it reports, but never acts)."""
    bare = _run("rcv", n, seed, ())
    layered = _run("rcv", n, seed, (), retx=RETX)
    assert layered.all_completed()
    assert [
        dataclasses.astuple(r) for r in bare.records
    ] == [dataclasses.astuple(r) for r in layered.records]
    for key in (
        "net_retx_retransmits",
        "net_retx_suppressed",
        "net_retx_giveups",
        "net_retx_acks_lost",
    ):
        assert layered.extra[key] == 0


@settings(**COMMON)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 10_000),
    faults=fault_specs(),
)
def test_retx_disabled_is_bitforbit_the_pre_retx_stack(n, seed, faults):
    """``retx=()`` must build the exact PR-7 stack: identical results
    across replays and no ``net_retx_*`` keys anywhere in the extras
    (the counters only exist when the channel is layered in)."""
    first = _run("rcv", n, seed, faults)
    second = _run("rcv", n, seed, faults)
    assert result_to_dict(first) == result_to_dict(second)
    assert not any(key.startswith("net_retx_") for key in first.extra)


@settings(**COMMON)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 10_000),
    rm_timeout=st.floats(50.0, 400.0),
    drop=st.floats(0.0, 0.2),
    requests=st.integers(1, 2),
)
def test_rcv_timer_alone_completes_over_a_lossy_channel(
    n, seed, rm_timeout, drop, requests
):
    """Protocol-level recovery without retx: whichever RM, IM or EM
    the channel drops, the home's timer relaunches its RM until the
    request is granted.  The drain deadline is a backstop for a
    strand (the timer would otherwise re-arm forever); runs like
    these finish within ~8,000 time units."""
    result = run_scenario(
        Scenario(
            "rcv",
            n,
            BurstArrivals(requests),
            seed=seed,
            faults=(("drop", drop),),
            drain_deadline=50_000,
            algo_kwargs={"config": RCVConfig(rm_timeout=rm_timeout)},
        ),
        require_completion=False,
    )
    assert result.all_completed()
