"""Tests for the unified execution engine and its fast paths."""

import pytest

from repro.engine import Engine, IncompleteRunError, run_scenario
from repro.experiments.parallel import CellSpec, run_cells
from repro.net.delay import MatrixDelay, UniformDelay
from repro.workload import BurstArrivals, Scenario
from repro.workload.runner import run_scenario as runner_run_scenario


def _fingerprint(result):
    """Everything observable about a RunResult, comparable exactly."""
    return (
        result.algorithm,
        result.n_nodes,
        result.seed,
        result.horizon,
        result.messages_total,
        tuple(sorted(result.messages_by_kind.items())),
        result.weighted_units,
        tuple(result.sync_delays),
        tuple(sorted(result.extra.items())),
        tuple(
            (r.node_id, r.request_time, r.grant_time, r.release_time)
            for r in result.records
        ),
    )


# ----------------------------------------------------------------------
# Engine object
# ----------------------------------------------------------------------
def test_engine_exposes_components_before_start():
    engine = Engine(
        Scenario(algorithm="rcv", n_nodes=4, arrivals=BurstArrivals())
    )
    assert engine.sim.now == 0.0
    assert engine.network.n_actors == 4
    assert len(engine.nodes) == 4
    assert len(engine.drivers) == 4
    # Nothing has been sent before start().
    assert engine.network.stats.sent_total == 0


def test_engine_run_matches_run_scenario():
    def scen():
        return Scenario(algorithm="rcv", n_nodes=6, arrivals=BurstArrivals(), seed=7)

    via_engine = Engine(scen()).run()
    via_function = run_scenario(scen())
    assert _fingerprint(via_engine) == _fingerprint(via_function)


def test_engine_start_is_idempotent():
    engine = Engine(
        Scenario(algorithm="rcv", n_nodes=3, arrivals=BurstArrivals())
    )
    engine.start()
    engine.start()  # second call must not re-issue requests
    result = engine.run()
    assert result.issued_count == 3


def test_engine_tap_observes_all_sends():
    from repro.cli import run_scenario_with_tap

    seen = []

    def tap(network, sim, hooks):
        network.add_tap(lambda s, d, m, at: seen.append((s, d, m.kind)))

    scenario = Scenario(algorithm="rcv", n_nodes=4, arrivals=BurstArrivals(), seed=0)
    result = run_scenario_with_tap(scenario, tap)
    assert len(seen) == result.messages_total


def test_runner_module_delegates_to_engine():
    scenario = Scenario(algorithm="rcv", n_nodes=4, arrivals=BurstArrivals(), seed=2)
    a = runner_run_scenario(scenario)
    b = run_scenario(
        Scenario(algorithm="rcv", n_nodes=4, arrivals=BurstArrivals(), seed=2)
    )
    assert _fingerprint(a) == _fingerprint(b)


def test_incomplete_run_error_reexport_is_same_class():
    import repro.workload.runner as runner

    assert IncompleteRunError is runner.IncompleteRunError


# ----------------------------------------------------------------------
# determinism across pipelines (run_scenario / run_cells sequential /
# run_cells process pool)
# ----------------------------------------------------------------------
def test_same_cell_identical_across_all_three_pipelines():
    spec = CellSpec(algorithm="rcv", n_nodes=6, seed=11, workload=("burst", 1))

    direct = run_scenario(spec.build_scenario())
    (sequential,) = run_cells([spec], max_workers=1)
    results = run_cells([spec, spec], max_workers=2)  # process pool

    want = _fingerprint(direct)
    assert _fingerprint(sequential) == want
    for pooled in results:
        assert _fingerprint(pooled) == want


def test_pool_and_sequential_agree_across_algorithms():
    specs = [
        CellSpec(algorithm=a, n_nodes=5, seed=s, workload=("burst", 1))
        for a in ("rcv", "ricart_agrawala")
        for s in (0, 1)
    ]
    sequential = run_cells(specs, max_workers=1)
    pooled = run_cells(specs, max_workers=2)
    assert [_fingerprint(r) for r in sequential] == [
        _fingerprint(r) for r in pooled
    ]


# ----------------------------------------------------------------------
# Env.schedule_once (fire-once tier of the Env protocol)
# ----------------------------------------------------------------------
def test_simenv_schedule_once_uses_kernel_fast_path():
    engine = Engine(
        Scenario(algorithm="rcv", n_nodes=2, arrivals=BurstArrivals())
    )
    fired = []
    engine.env.schedule_once(1.0, lambda: fired.append(engine.sim.now))
    engine.sim.step()
    assert fired == [1.0]
    # Handle-free: the heap entry was a plain tuple, nothing pending.
    assert engine.sim.pending == 0


def test_env_schedule_once_default_delegates_to_schedule():
    from repro.mutex.base import Env

    calls = []

    class Recording(Env):
        def now(self):
            return 0.0

        def send(self, src, dst, message):
            pass

        def schedule(self, delay, callback):
            calls.append((delay, callback))

        def rng(self, name):
            raise NotImplementedError

    Recording().schedule_once(2.5, "cb")
    assert calls == [(2.5, "cb")]


def test_asyncenv_schedule_once_fires():
    import asyncio

    from repro.runtime.env import AsyncEnv

    async def scenario():
        fired = asyncio.Event()
        env = AsyncEnv(lambda s, d, m: None)
        env.schedule_once(0.001, fired.set)
        await asyncio.wait_for(fired.wait(), timeout=1.0)
        return True

    assert asyncio.run(scenario())


# ----------------------------------------------------------------------
# network fast path parity
# ----------------------------------------------------------------------
def test_matrix_delay_rides_fast_path_with_correct_latency():
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.sim.kernel import Simulator
    from repro.sim.process import Actor

    class Probe(Actor):
        def __init__(self, actor_id):
            super().__init__(actor_id)
            self.received_at = []

        def deliver(self, src, message):
            self.received_at.append(src)

    sim = Simulator()
    net = Network(sim, delay_model=MatrixDelay(lambda s, d: 2.0 + d))
    probes = [Probe(i) for i in range(3)]
    for p in probes:
        net.register(p)
    assert net._pair_delays == {}  # fast path armed
    net.send(0, 1, Message())
    net.send(0, 2, Message())
    sim.run()
    assert net._pair_delays == {(0, 1): 3.0, (0, 2): 4.0}
    assert sim.now == 4.0
    assert net.stats.delivered_total == 2


def test_subclass_overriding_sample_is_not_trusted_by_fast_path():
    # A subclass that overrides sample() without overriding
    # pair_constant() breaks the "pair_constant describes sample"
    # promise: the network must fall back to the sampling path so the
    # override's delays (and rng draws) are honoured.
    from repro.net.delay import ConstantDelay
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.sim.kernel import Simulator
    from repro.sim.process import Actor
    from repro.sim.rng import RngRegistry
    from repro.sim.streams import STREAM_NET_DELAY

    class Jittered(ConstantDelay):
        def sample(self, src, dst, rng):
            return self.delay + rng.uniform(0.0, 1.0)

    class Sink(Actor):
        def deliver(self, src, message):
            pass

    sim = Simulator()
    net = Network(
        sim,
        delay_model=Jittered(5.0),
        rng=RngRegistry(0).stream(STREAM_NET_DELAY),
    )
    assert net._pair_delays is None  # fast path refused up front
    for i in range(2):
        net.register(Sink(i))
    net.send(0, 1, Message())
    sim.run()
    assert 5.0 < sim.now <= 6.0  # the override's jitter was applied


def test_stochastic_delay_disables_fast_path():
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.sim.kernel import Simulator
    from repro.sim.process import Actor
    from repro.sim.rng import RngRegistry
    from repro.sim.streams import STREAM_NET_DELAY

    class Sink(Actor):
        def deliver(self, src, message):
            pass

    sim = Simulator()
    net = Network(
        sim,
        delay_model=UniformDelay(1.0, 9.0),
        rng=RngRegistry(0).stream(STREAM_NET_DELAY),
    )
    for i in range(2):
        net.register(Sink(i))
    net.send(0, 1, Message())
    assert net._pair_delays is None  # permanently disabled
    sim.run()
    assert net.stats.delivered_total == 1


def test_fast_path_preserved_metrics_under_faults():
    # Fault injection must keep exact drop semantics even though the
    # no-fault case takes the handle-free path.
    scenario = Scenario(algorithm="rcv", n_nodes=5, arrivals=BurstArrivals(), seed=1)
    engine = Engine(scenario)
    engine.network.partition(0, 1)
    engine.network.heal(0, 1)
    result = engine.run()
    assert result.all_completed()


_LOSSY = (("drop", 0.05), ("dup", 0.05))
_HANDLE_FREE_CELLS = {
    "constant": {},
    "exponential": {"delay": ("exponential", 5.0, 1.0)},
    "faults": {"faults": _LOSSY},
    "faults+retx": {"faults": _LOSSY, "retx": ("retx", 5.0, 2.0, 10)},
    # the engine's own scheduled events: cut, heal, crash, recover
    "scheduled-faults": {
        "faults": (
            ("partition", ((20.0, 60.0, (0, 1), (2, 3, 4, 5)),)),
            ("crash", ((5, 30.0),)),
            ("recover", ((5, 90.0),)),
        )
    },
}


def _scheduled_handles(engine):
    from repro.sim.kernel import Handle

    return [e[-1] for e in engine.sim._heap if isinstance(e[-1], Handle)]


@pytest.mark.parametrize("cell", sorted(_HANDLE_FREE_CELLS))
def test_no_delivery_allocates_a_handle(cell):
    # A Handle is allocated only where .cancel() is reachable; nothing
    # a plain run schedules — deliveries on either send path, arrivals,
    # fault events — can be cancelled, so none of it may carry one.
    spec = CellSpec("rcv", 6, 3, ("burst", 1), **_HANDLE_FREE_CELLS[cell])
    engine = Engine(spec.build_scenario())
    engine.start()
    assert engine.sim.pending > 0
    assert _scheduled_handles(engine) == []
    while engine.sim.step():
        assert _scheduled_handles(engine) == []
    assert engine.network.stats.delivered_total > 0


def test_only_recovery_timers_hold_handles():
    from repro.core.config import RCVConfig

    spec = CellSpec(
        "rcv", 6, 3, ("burst", 1),
        delay=("exponential", 5.0, 1.0),
        algo_kwargs={"config": RCVConfig(rm_timeout=40.0)},
    )
    engine = Engine(spec.build_scenario())
    engine.start()
    seen = 0
    while engine.sim.step():
        live = [h for h in _scheduled_handles(engine) if h.active]
        timers = [
            n._recovery_timer
            for n in engine.nodes
            if n._recovery_timer is not None and n._recovery_timer.active
        ]
        assert sorted(map(id, live)) == sorted(map(id, timers))
        seen = max(seen, len(live))
    assert seen > 0  # the opt-in timer really was armed


def test_incomplete_run_raises_with_partial_result():
    # A drain deadline of ~0 cuts the run before anything completes.
    scenario = Scenario(
        algorithm="rcv",
        n_nodes=4,
        arrivals=BurstArrivals(),
        seed=0,
        drain_deadline=1.0,
    )
    with pytest.raises(IncompleteRunError) as exc_info:
        run_scenario(scenario)
    assert exc_info.value.result.completed_count == 0


# ----------------------------------------------------------------------
# the counter registry (metrics/counters.py) checks every run's extra
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "key",
    [
        "si_cow_clone",  # an emitter typo-forks a registered name
        "handoffs",  # a new counter under no particular prefix
    ],
)
def test_undeclared_counter_fails_the_run(key, monkeypatch):
    from repro.core.node import RCVNode
    from repro.metrics.counters import COUNTERS, UndeclaredCounterError
    from repro.registry import ALGORITHMS

    class Chatty(RCVNode):
        def counter_snapshot(self):
            return {**super().counter_snapshot(), key: 1}

    assert key not in COUNTERS
    monkeypatch.setitem(ALGORITHMS, "chatty", Chatty)
    scenario = Scenario(algorithm="chatty", n_nodes=3, arrivals=BurstArrivals())
    with pytest.raises(UndeclaredCounterError) as err:
        run_scenario(scenario)
    assert repr(key) in str(err.value)
    assert "src/repro/metrics/counters.py" in str(err.value)


@pytest.mark.parametrize(
    "workload", [("burst", 2), ("poisson", 20.0, 200.0)], ids=["burst", "poisson"]
)
def test_every_algorithm_emits_only_declared_counters(workload):
    from repro.metrics.counters import COUNTERS
    from repro.registry import algorithm_names

    emitted = set()
    for algorithm in algorithm_names():
        spec = CellSpec(algorithm, 5, 3, workload)
        emitted |= set(run_scenario(spec.build_scenario()).extra)
    assert {"exchanges", "rm_launched", "stale_em"} <= emitted <= set(COUNTERS)
