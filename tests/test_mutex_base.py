"""Tests for the MutexNode state machine and hooks."""

import pytest

from repro.mutex.base import Hooks, MutexNode, NodeState
from repro.registry import ALGORITHMS
from repro.workload import TraceArrivals
from tests.conftest import started_engine


class ToyMutex(MutexNode):
    """Grants itself immediately; the minimal conforming algorithm."""

    algorithm_name = "toy"

    def _do_request(self):
        self._grant()

    def _do_release(self):
        pass

    def on_message(self, src, message):
        pass


@pytest.fixture
def toy(monkeypatch):
    """``toy(n, **fields)``: a started engine of ``n`` ToyMutex nodes."""
    monkeypatch.setitem(ALGORITHMS, "toy", ToyMutex)
    return lambda n, **fields: started_engine("toy", n, **fields)


def test_request_grant_release_cycle(toy):
    engine = toy(1)
    (node,) = engine.nodes
    assert node.state is NodeState.IDLE
    engine.drivers[0].issue()
    assert node.state is NodeState.IN_CS
    node.release_cs()
    assert node.state is NodeState.IDLE
    assert node.cs_count == 1


def test_double_request_rejected(toy):
    engine = toy(1)
    (node,) = engine.nodes
    engine.drivers[0].issue()
    with pytest.raises(RuntimeError, match="requested CS while"):
        node.request_cs()


def test_release_without_cs_rejected(toy):
    (node,) = toy(1).nodes
    with pytest.raises(RuntimeError, match="released CS while"):
        node.release_cs()


def test_grant_while_idle_rejected(toy):
    (node,) = toy(1).nodes
    with pytest.raises(RuntimeError, match="granted CS while"):
        node._grant()


def test_node_id_bounds_checked(toy):
    engine = toy(3)
    with pytest.raises(ValueError):
        ToyMutex(5, 3, engine.env, engine.hooks)


def test_hooks_fan_out_to_all_subscribers():
    hooks = Hooks()
    got = []
    hooks.subscribe_granted(lambda n: got.append(("g1", n)))
    hooks.subscribe_granted(lambda n: got.append(("g2", n)))
    hooks.subscribe_released(lambda n: got.append(("r", n)))
    hooks.on_granted(3)
    hooks.on_released(3)
    assert got == [("g1", 3), ("g2", 3), ("r", 3)]


def test_a_node_subscriber_sees_only_its_node():
    hooks = Hooks()
    got = []
    hooks.subscribe_granted(lambda n: got.append(("g", n)), node=2)
    hooks.subscribe_released(lambda n: got.append(("r", n)), node=2)
    for node in range(4):
        hooks.on_granted(node)
        hooks.on_released(node)
    assert got == [("g", 2), ("r", 2)]


def test_every_node_subscribers_run_first_in_subscription_order():
    hooks = Hooks()
    got = []
    hooks.subscribe_granted(lambda n: got.append(("node1", n)), node=1)
    hooks.subscribe_granted(lambda n: got.append(("all1", n)))
    hooks.subscribe_granted(lambda n: got.append(("node0", n)), node=0)
    hooks.subscribe_granted(lambda n: got.append(("all2", n)))
    hooks.subscribe_released(lambda n: got.append(("rel1", n)), node=1)
    hooks.subscribe_released(lambda n: got.append(("rel", n)))
    hooks.on_granted(0)
    hooks.on_granted(1)
    hooks.on_released(1)
    assert got == [
        ("all1", 0), ("all2", 0), ("node0", 0),
        ("all1", 1), ("all2", 1), ("node1", 1),
        ("rel", 1), ("rel1", 1),
    ]


def test_engine_drivers_hear_only_their_own_node(monkeypatch):
    """The engine subscribes each workload driver to its node alone, so
    a grant costs one driver call, not N."""
    from repro.engine import run_scenario
    from repro.workload import BurstArrivals, Scenario
    from repro.workload.driver import NodeDriver

    heard = []
    for name in ("on_granted", "on_released"):
        real = getattr(NodeDriver, name)

        def spy(driver, node_id, real=real, name=name):
            heard.append((name, driver.node.node_id, node_id))
            real(driver, node_id)

        monkeypatch.setattr(NodeDriver, name, spy)
    run_scenario(Scenario("ricart_agrawala", 4, BurstArrivals(1)))
    assert sorted(heard) == sorted(
        (name, i, i) for name in ("on_granted", "on_released") for i in range(4)
    )


def test_request_time_recorded(toy):
    engine = toy(1, arrivals=TraceArrivals({0: [7.5]}))
    result = engine.run()
    assert [record.request_time for record in result.records] == [7.5]


def test_peers_excludes_self(toy):
    nodes = toy(4).nodes
    assert sorted(nodes[2].peers()) == [0, 1, 3]
