"""Tests for the message-delivery fabric."""

import pytest

from repro.net.delay import ConstantDelay
from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.process import Actor


class Probe(Actor):
    def __init__(self, actor_id):
        super().__init__(actor_id)
        self.received = []

    def on_message(self, src, message):
        self.received.append((src, message))


class Ping(Message):
    kind = "PING"
    __slots__ = ()


class Pong(Message):
    kind = "PONG"
    __slots__ = ()


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim, delay_model=ConstantDelay(5.0))
    actors = [Probe(i) for i in range(3)]
    for a in actors:
        net.register(a)
    return sim, net, actors


def test_delivery_after_delay(world):
    sim, net, actors = world
    net.send(0, 1, Ping())
    assert actors[1].received == []
    sim.run()
    assert sim.now == 5.0
    assert len(actors[1].received) == 1
    assert actors[1].received[0][0] == 0


def test_duplicate_registration_rejected(world):
    _, net, _ = world
    with pytest.raises(ValueError):
        net.register(Probe(0))


def test_unknown_destination(world):
    _, net, _ = world
    with pytest.raises(KeyError):
        net.send(0, 99, Ping())


def test_self_send_rejected(world):
    _, net, _ = world
    with pytest.raises(ValueError):
        net.send(1, 1, Ping())


def test_stats_count_by_kind(world):
    sim, net, _ = world
    net.send(0, 1, Ping())
    net.send(0, 2, Ping())
    net.send(1, 0, Pong())
    sim.run()
    assert net.stats.sent_total == 3
    assert net.stats.delivered_total == 3
    assert net.stats.by_kind == {"PING": 2, "PONG": 1}


def test_taps_observe_sends(world):
    sim, net, _ = world
    seen = []
    net.add_tap(lambda src, dst, msg, at: seen.append((src, dst, msg.kind, at)))
    net.send(0, 2, Ping())
    assert seen == [(0, 2, "PING", 5.0)]


def _outage_world(*faults):
    sim = Simulator()
    net = Network(
        sim, delay_model=ConstantDelay(5.0), outages=FaultPlan(faults)
    )
    actors = [Probe(i) for i in range(3)]
    for a in actors:
        net.register(a)
    return sim, net, actors


def test_partition_drops_and_heal_restores():
    sim, net, actors = _outage_world(
        ("partition", ((0.0, 10.0, (0,), (1,)),))
    )
    net.send(0, 1, Ping())
    net.send(1, 0, Ping())  # both directions blocked
    net.send(0, 2, Ping())  # a pair the window does not cut
    sim.run(until=10.0)  # the heal instant
    assert actors[0].received == [] and actors[1].received == []
    assert len(actors[2].received) == 1
    # Partitioned sends still count as sent (they left the node).
    assert net.stats.sent_total == 3
    net.send(0, 1, Ping())
    sim.run()
    assert len(actors[1].received) == 1


def test_crash_does_not_retract_in_flight_messages():
    """Documented fail-stop semantics the fault fabric must not change.

    A crash silences traffic from the crash instant on, but packets
    already on the wire still arrive — in both directions: a message
    scheduled before the *sender* crashed is delivered, and a message
    scheduled toward a node that crashes mid-flight is still handed
    to its actor (the crash is a network-boundary event, not a
    retraction of sent packets).
    """
    sim, net, actors = _outage_world(("crash", ((0, 1.0),)))
    net.send(0, 1, Ping())  # in flight from the soon-to-crash sender
    net.send(2, 0, Pong())  # in flight toward the soon-to-crash node
    sim.run(until=1.0)  # the crash instant
    net.send(0, 2, Ping())  # post-crash send: silently dropped
    net.send(1, 0, Pong())  # post-crash receive: silently dropped
    sim.run()
    assert len(actors[1].received) == 1  # pre-crash send arrived
    assert len(actors[0].received) == 1  # pre-crash receive arrived
    assert actors[2].received == []  # post-crash traffic lost
    assert net.outages.node_down(0, sim.now)
    # Dropped sends still count as sent (they left the node); only
    # two deliveries happened.
    assert net.stats.sent_total == 4
    assert net.stats.delivered_total == 2


def test_weighted_units_accumulate(world):
    class Fat(Message):
        kind = "FAT"
        __slots__ = ()

        def size_units(self):
            return 10

    sim, net, _ = world
    net.send(0, 1, Fat())
    net.send(0, 1, Ping())
    assert net.stats.weighted_units == 11


def test_seedless_network_raises_on_first_stochastic_draw():
    # Regression: the old fallback silently used a shared Random(0),
    # decoupling stochastic delays from the experiment's seed tree.
    from repro.net.delay import UniformDelay
    from repro.net.network import SeedlessNetworkError

    sim = Simulator()
    net = Network(sim, delay_model=UniformDelay(1.0, 9.0))  # allowed: no draw yet

    class Sink(Actor):
        def on_message(self, src, message):
            pass

    for i in range(2):
        net.register(Sink(i))
    # The delay is sampled at send time: the very first draw raises.
    with pytest.raises(SeedlessNetworkError, match="seed tree"):
        net.send(0, 1, Message())


def test_seedless_network_fine_for_constant_delays():
    sim = Simulator()
    net = Network(sim)  # ConstantDelay default never draws

    class Sink(Actor):
        received = None

        def on_message(self, src, message):
            pass

    for i in range(2):
        net.register(Sink(i))
    net.send(0, 1, Message())
    sim.run()
    assert net.stats.delivered_total == 1


# ----------------------------------------------------------------------
# the hop's cost, counted in Python calls (a call count does not flap
# the way a timing floor does on a shared host)
# ----------------------------------------------------------------------
def _hop_calls(delay_model):
    """Qualified names of the Python calls one protocol send makes,
    from the node's ``env.send`` through the delivery's ``on_message``."""
    import sys

    from repro.mutex.base import Hooks, MutexNode, SimEnv
    from repro.sim.rng import RngRegistry

    class Sink(MutexNode):
        def on_message(self, src, message):
            pass

    sim = Simulator()
    rngs = RngRegistry(0)
    net = Network(sim, delay_model=delay_model, rng=rngs.stream("net/delay"))
    env = SimEnv(sim, net, rngs)
    hooks = Hooks()
    for i in range(2):
        net.register(Sink(i, 2, env, hooks))
    env.send(0, 1, Ping())  # first send on the pair fills its caches
    sim.run()
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_qualname)

    message = Ping()
    sys.setprofile(profile)
    try:
        env.send(0, 1, message)
    finally:
        sys.setprofile(None)
    ((_, _, deliver),) = sim._heap
    sys.setprofile(profile)
    try:
        deliver()
    finally:
        sys.setprofile(None)
    return calls


def test_a_sampled_hop_is_at_most_three_calls():
    # Network.send, the sampler, on_message
    from repro.net.delay import ExponentialDelay

    calls = _hop_calls(ExponentialDelay(5.0))
    assert len(calls) <= 3, calls


def test_a_constant_delay_hop_is_at_most_two_calls():
    # Network.send, on_message: the pair's delay is cached
    calls = _hop_calls(ConstantDelay(5.0))
    assert len(calls) <= 2, calls


@pytest.mark.parametrize("build", ["ra_request", "rcv_request"])
def test_building_a_message_is_one_call(build):
    """A message's ``__init__`` sets its payload and nothing else: its
    id is the network's to give at send time."""
    import sys

    from repro.baselines.ricart_agrawala import RaRequest
    from repro.core.messages import RequestMessage
    from repro.core.state import SystemInfo
    from repro.core.tuples import ReqTuple

    si, tup = SystemInfo(3), ReqTuple(0, 1)
    make = {
        "ra_request": lambda: RaRequest(1, 0),
        "rcv_request": lambda: RequestMessage(0, tup, (1, 2), si, hops=0),
    }[build]
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        message = make()
    finally:
        sys.setprofile(None)
    inits = [name for name in calls if name.endswith("__init__")]
    assert inits == [f"{type(message).__name__}.__init__"], calls
