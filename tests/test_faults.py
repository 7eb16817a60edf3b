"""Unit tests for the deterministic fault fabric (repro.net.faults)."""

import random
from dataclasses import replace

import pytest

from repro.engine.engine import Engine, run_scenario
from repro.experiments.spec import (
    AXES,
    CellSpec,
    UnrepresentableScenarioError,
)
from repro.net.channels import RawChannel
from repro.net.delay import ConstantDelay
from repro.net.faults import FaultPlan, FaultyChannel, normalize_faults
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.process import Actor


# ----------------------------------------------------------------------
# grammar / normalization
# ----------------------------------------------------------------------
def test_normalize_orders_kinds_canonically():
    spec = normalize_faults(
        (("reorder", 5), ("drop", 0.1), ("dup", 0.2))
    )
    assert spec == (("drop", 0.1), ("dup", 0.2), ("reorder", 5.0))


def test_normalize_removes_noop_faults():
    assert normalize_faults((("drop", 0.0),)) == ()
    assert normalize_faults((("dup", 0),)) == ()
    assert normalize_faults((("reorder", 0.0),)) == ()
    assert normalize_faults((("partition", ()),)) == ()
    assert normalize_faults((("crash", []),)) == ()


def test_normalize_coerces_and_sorts_schedules():
    spec = normalize_faults(
        (
            ("crash", [(3, 50), (1, 20)]),
            ("partition", [[10, 20, [1, 0], (2, 3)]]),
        )
    )
    assert spec == (
        ("partition", ((10.0, 20.0, (0, 1), (2, 3)),)),
        ("crash", ((1, 20.0), (3, 50.0))),
    )


@pytest.mark.parametrize(
    "bad",
    [
        (("cosmic-ray", 0.5),),
        (("drop", 1.5),),
        (("drop", -0.1),),
        (("dup", 0.1), ("dup", 0.2)),  # duplicate kind
        (("reorder", -1.0),),
        (("partition", ((20.0, 10.0, (0,), (1,)),)),),  # heal before cut
        (("partition", ((0.0, 10.0, (0, 1), (1, 2)),)),),  # overlap
        (("partition", ((0.0, 10.0, (), (1,)),)),),  # empty group
        (("crash", ((0, -5.0),)),),
        (("crash", ((0, 1.0), (0, 2.0))),),  # same node twice
    ],
)
def test_normalize_rejects_bad_specs(bad):
    with pytest.raises(ValueError):
        normalize_faults(bad)


def test_normalize_range_checks_nodes_against_n():
    with pytest.raises(ValueError):
        normalize_faults((("crash", ((7, 1.0),)),), n_nodes=5)
    with pytest.raises(ValueError):
        normalize_faults(
            (("partition", ((0.0, 1.0, (0,), (9,)),)),), n_nodes=5
        )
    # In range: fine.
    normalize_faults((("crash", ((4, 1.0),)),), n_nodes=5)


def test_campaign_wrapper_raises_typed_guard():
    normalize = AXES["faults"].normalize
    with pytest.raises(UnrepresentableScenarioError):
        normalize((("gamma-burst", 1.0),))
    with pytest.raises(UnrepresentableScenarioError):
        normalize((("crash", ((9, 1.0),)),), 4)


#: two windows that both cut 0/2 and 0/3 over [20, 50): the bare
#: network once healed those pairs at 50 while the retx channel kept
#: them cut until 80
_OVERLAPPING = ((10.0, 50.0, (0,), (1, 2, 3)), (20.0, 80.0, (0, 1), (2, 3)))


def test_overlapping_windows_that_cut_a_common_pair_are_refused():
    with pytest.raises(ValueError) as info:
        normalize_faults((("partition", _OVERLAPPING),))
    message = str(info.value)
    assert all(repr(window) in message for window in _OVERLAPPING)
    with pytest.raises(UnrepresentableScenarioError):
        AXES["faults"].normalize((("partition", _OVERLAPPING),), 4)
    spec = CellSpec(
        "rcv", 4, 0, ("burst", 1), faults=(("partition", _OVERLAPPING),)
    )
    with pytest.raises(UnrepresentableScenarioError):
        spec.normalized()
    # the common pair may sit on opposite sides in the two windows
    swapped = ((10.0, 50.0, (0, 1), (2, 3)), (20.0, 80.0, (2,), (0,)))
    with pytest.raises(ValueError):
        normalize_faults((("partition", swapped),))


@pytest.mark.parametrize(
    "windows",
    [
        # touching: one heals exactly when the next cuts
        ((10.0, 50.0, (0,), (1, 2, 3)), (50.0, 80.0, (0, 1), (2, 3))),
        # overlapping in time, but no pair is cut by both
        ((10.0, 50.0, (0,), (1,)), (20.0, 80.0, (2,), (3,))),
        ((10.0, 50.0, (0, 1), (2, 3)), (20.0, 80.0, (0,), (1,))),
    ],
)
def test_touching_or_disjoint_windows_stay_legal(windows):
    spec = normalize_faults((("partition", windows),))
    assert spec == (("partition", tuple(sorted(windows))),)


def test_fault_plan_unpacks_spec():
    plan = FaultPlan((("drop", 0.1), ("crash", ((2, 5.0),))))
    assert plan.drop == 0.1
    assert plan.dup == 0.0
    assert plan.crashes == ((2, 5.0),)
    assert plan.channel_faults and plan.scheduled_faults
    assert FaultPlan.from_spec(()) is None
    assert FaultPlan.from_spec((("drop", 0.0),)) is None


# ----------------------------------------------------------------------
# FaultyChannel mechanics
# ----------------------------------------------------------------------
def _channel(faults, seed=0):
    return FaultyChannel(RawChannel(), FaultPlan(faults), random.Random(seed))


def _times(channel, sends=1000):
    delay_rng = random.Random(1)
    model = ConstantDelay(5.0)
    return [
        channel.delivery_times(0, 1, 100.0, model, delay_rng)
        for _ in range(sends)
    ]


def test_drop_swallows_messages():
    channel = _channel((("drop", 0.2),))
    times = _times(channel)
    dropped = sum(1 for t in times if t == ())
    assert dropped == channel.dropped
    assert 120 < dropped < 280  # ~200 of 1000 at p=0.2, fixed seed
    assert all(t == (105.0,) for t in times if t)


def test_dup_delivers_twice():
    channel = _channel((("dup", 0.3),))
    times = _times(channel)
    dups = sum(1 for t in times if len(t) == 2)
    assert dups == channel.duplicated
    assert 220 < dups < 380
    assert all(t in ((105.0,), (105.0, 105.0)) for t in times)


def test_reorder_adds_bounded_jitter():
    channel = _channel((("reorder", 8.0),))
    times = _times(channel)
    flat = [t for tup in times for t in tup]
    assert all(105.0 <= t < 113.0 for t in flat)
    assert len(set(flat)) > 900  # genuinely jittered


def test_fault_decisions_are_seed_deterministic():
    a = _times(_channel((("drop", 0.1), ("dup", 0.1), ("reorder", 4.0))))
    b = _times(_channel((("drop", 0.1), ("dup", 0.1), ("reorder", 4.0))))
    assert a == b
    c = _times(
        _channel((("drop", 0.1), ("dup", 0.1), ("reorder", 4.0)), seed=1)
    )
    assert a != c


# ----------------------------------------------------------------------
# Network integration
# ----------------------------------------------------------------------
class _Probe(Actor):
    def __init__(self, actor_id):
        super().__init__(actor_id)
        self.received = []

    def on_message(self, src, message):
        self.received.append((src, message))


class _Ping(Message):
    kind = "PING"
    __slots__ = ()


def _faulty_world(faults, seed=0):
    sim = Simulator()
    channel = _channel(faults, seed=seed)
    net = Network(sim, delay_model=ConstantDelay(5.0), channel=channel)
    actors = [_Probe(i) for i in range(3)]
    for a in actors:
        net.register(a)
    return sim, net, actors, channel


def test_network_counts_duplicate_deliveries():
    sim, net, actors, channel = _faulty_world((("dup", 1.0),))
    net.send(0, 1, _Ping())
    sim.run()
    assert channel.duplicated == 1
    assert len(actors[1].received) == 2
    assert net.stats.sent_total == 1
    assert net.stats.delivered_total == 2


def test_network_drops_leave_no_delivery_and_no_tap():
    sim, net, actors, channel = _faulty_world((("drop", 1.0),))
    seen = []
    net.add_tap(lambda *a: seen.append(a))
    net.send(0, 1, _Ping())
    sim.run()
    assert channel.dropped == 1
    assert actors[1].received == []
    assert seen == []  # taps observe deliveries; a dropped send has none
    assert net.stats.sent_total == 1
    assert net.stats.delivered_total == 0


# ----------------------------------------------------------------------
# engine wiring: schedules, counters, clean-run purity
# ----------------------------------------------------------------------
def _cell(n=6, faults=(), algorithm="rcv"):
    return CellSpec(algorithm, n, 0, ("burst", 1), faults=faults)


def _open_pairs(spec, t):
    """The engine run to ``t``, and the ordered pairs a probe send
    made at ``t`` gets through (a tap sees each one that is not lost
    to an outage; the probes are never delivered)."""
    engine = Engine(spec.build_scenario())
    engine.start()
    engine.sim.run(until=t)
    seen = set()
    engine.network.add_tap(lambda src, dst, message, at: seen.add((src, dst)))
    n = spec.n_nodes
    for src in range(n):
        for dst in range(n):
            if src != dst:
                engine.network.send(src, dst, Message())
    return engine, seen


def _pairs(nodes):
    return {(a, b) for a in nodes for b in nodes if a != b}


def test_engine_partition_window_cuts_then_heals():
    faults = (("partition", ((30.0, 60.0, (0, 1, 2), (3, 4, 5)),)),)
    _, open_ = _open_pairs(_cell(faults=faults), 45.0)
    assert open_ == _pairs((0, 1, 2)) | _pairs((3, 4, 5))
    _, open_ = _open_pairs(_cell(faults=faults), 70.0)
    assert open_ == _pairs(range(6))


def test_engine_crash_schedule_fails_node():
    faults = (("crash", ((5, 25.0),)),)
    _, open_ = _open_pairs(_cell(faults=faults), 10.0)
    assert open_ == _pairs(range(6))
    _, open_ = _open_pairs(_cell(faults=faults), 30.0)
    assert open_ == _pairs(range(5))


def test_fault_counters_in_extra_only_for_fault_runs():
    faulty = run_scenario(
        _cell(faults=(("dup", 0.5),)).build_scenario(),
        require_completion=False,
    )
    assert faulty.extra["net_fault_dups"] > 0
    assert faulty.extra["net_fault_drops"] == 0
    clean = run_scenario(_cell().build_scenario())
    assert "net_fault_dups" not in clean.extra
    assert "net_fault_drops" not in clean.extra


def test_noop_fault_spec_is_bitforbit_clean():
    from repro.metrics.io import result_to_dict

    clean = run_scenario(_cell().build_scenario())
    noop = run_scenario(
        _cell(faults=(("drop", 0.0), ("crash", ()))).build_scenario()
    )
    assert result_to_dict(clean) == result_to_dict(noop)


def test_scheduled_faults_keep_fast_path_when_channel_clean():
    # partition/crash are pre-send checks in Network.send, so a run
    # with only scheduled faults keeps the pair-constant fast path.
    faults = (("crash", ((5, 1e9),)),)
    engine = Engine(_cell(faults=faults).build_scenario())
    assert engine.fault_channel is None
    assert engine.network._pair_delays is not None
    # ...while channel faults disable it (FaultyChannel is stateful).
    engine2 = Engine(_cell(faults=(("drop", 0.01),)).build_scenario())
    assert engine2.fault_channel is not None
    assert engine2.network._pair_delays is None


def test_spec_roundtrip_preserves_faults():
    spec = _cell(faults=(("reorder", 5), ("drop", 0.25)))
    assert spec.build_scenario().faults == (("drop", 0.25), ("reorder", 5.0))


def test_faulty_run_is_deterministic_across_replays():
    from repro.metrics.io import result_to_dict

    spec = _cell(
        n=10,
        faults=(("drop", 0.05), ("dup", 0.1), ("reorder", 6.0)),
    )
    results = [
        run_scenario(spec.build_scenario(), require_completion=False)
        for _ in range(2)
    ]
    assert result_to_dict(results[0]) == result_to_dict(results[1])


# ----------------------------------------------------------------------
# crash recovery: grammar cross-validation, plan queries, engine wiring
# ----------------------------------------------------------------------
def test_normalize_recover_requires_a_strictly_earlier_crash():
    # no crash at all
    with pytest.raises(ValueError):
        normalize_faults((("recover", ((2, 50.0),)),))
    # names a node that never crashed
    with pytest.raises(ValueError):
        normalize_faults(
            (("crash", ((1, 10.0),)), ("recover", ((2, 50.0),)))
        )
    # revives at (or before) the instant of the crash
    with pytest.raises(ValueError):
        normalize_faults(
            (("crash", ((2, 50.0),)), ("recover", ((2, 50.0),)))
        )
    with pytest.raises(ValueError):
        normalize_faults(
            (("crash", ((2, 50.0),)), ("recover", ((2, 20.0),)))
        )
    # same node revived twice
    with pytest.raises(ValueError):
        normalize_faults(
            (
                ("crash", ((2, 10.0),)),
                ("recover", ((2, 20.0), (2, 30.0))),
            )
        )


def test_normalize_recover_coerces_and_sorts():
    spec = normalize_faults(
        (
            ("recover", [[3, 90], (1, 80.0)]),
            ("crash", ((1, 20.0), (3, 30.0))),
        )
    )
    assert spec == (
        ("crash", ((1, 20.0), (3, 30.0))),
        ("recover", ((1, 80.0), (3, 90.0))),
    )


def test_fault_plan_outage_queries():
    plan = FaultPlan(
        (
            ("crash", ((2, 30.0), (4, 10.0))),
            ("recover", ((2, 80.0),)),
        )
    )
    assert plan.recovers == ((2, 80.0),)
    assert plan.scheduled_faults
    # node 2: down inside [30, 80), up either side of the window
    assert not plan.node_down(2, 29.9)
    assert plan.node_down(2, 30.0)
    assert plan.node_down(2, 79.9)
    assert not plan.node_down(2, 80.0)
    # node 4 never recovers; node 0 never crashes
    assert plan.node_down(4, 1e9)
    assert not plan.node_down(0, 50.0)


def test_fault_plan_pair_cut_window():
    plan = FaultPlan(
        (("partition", ((10.0, 20.0, (0, 1), (2, 3)),)),)
    )
    assert plan.pair_cut(0, 2, 15.0)
    assert plan.pair_cut(3, 1, 15.0)  # symmetric
    assert not plan.pair_cut(0, 1, 15.0)  # same side
    assert not plan.pair_cut(0, 2, 25.0)  # healed
    assert not plan.pair_cut(0, 2, 5.0)  # not yet cut


def test_engine_recover_schedule_revives_node():
    faults = (("crash", ((5, 25.0),)), ("recover", ((5, 60.0),)))
    engine, open_ = _open_pairs(_cell(faults=faults), 30.0)
    assert open_ == _pairs(range(5))
    assert engine.nodes[5].counters["rejoins"] == 0
    engine, open_ = _open_pairs(_cell(faults=faults), 70.0)
    assert open_ == _pairs(range(6))
    assert engine.nodes[5].counters["rejoins"] == 1


def test_engine_recover_is_algorithm_agnostic():
    # Maekawa nodes have no rejoin() hook: a recovered node's traffic
    # still flows again (duck-typed resync is RCV-specific).
    faults = (("crash", ((5, 25.0),)), ("recover", ((5, 60.0),)))
    spec = _cell(n=9, faults=faults, algorithm="maekawa")
    _, open_ = _open_pairs(spec, 70.0)
    assert open_ == _pairs(range(9))


def test_recovered_node_resyncs_and_run_completes():
    spec = _cell(
        n=8,
        faults=(("crash", ((5, 20.0),)), ("recover", ((5, 120.0),))),
    )
    scenario = replace(
        spec.build_scenario(), retx=("retx", 5.0, 2.0, 10)
    )
    result = run_scenario(scenario, require_completion=False)
    assert result.all_completed()
    assert result.extra["rejoins"] == 1
