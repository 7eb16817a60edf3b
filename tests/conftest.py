"""Shared test fixtures and helpers."""

from __future__ import annotations

import pytest

from repro.metrics.collector import MetricsCollector
from repro.metrics.safety import SafetyMonitor
from repro.mutex.base import Hooks, SimEnv
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


class LenientCollector(MetricsCollector):
    """Collector that opens a record on grant when the test drove the
    node directly (without announcing the request first)."""

    def on_granted(self, node_id: int) -> None:
        if node_id not in self._open:
            self.on_requested(node_id)
        super().on_granted(node_id)


class Harness:
    """A hand-wired simulation world for unit tests.

    Unlike :func:`repro.workload.run_scenario`, the harness exposes
    every component so tests can poke protocol internals, inject
    messages, and step time manually.  ``network_kwargs`` go to the
    :class:`~repro.net.network.Network`; outages are injected as
    ``outages=FaultPlan(...)``.
    """

    def __init__(self, seed: int = 0, **network_kwargs) -> None:
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        self.network = Network(
            self.sim, rng=self.rngs.stream("net/delay"), **network_kwargs
        )
        self.hooks = Hooks()
        self.env = SimEnv(self.sim, self.network, self.rngs)
        self.collector = LenientCollector(lambda: self.sim.now)
        self.safety = SafetyMonitor(
            lambda: self.sim.now, waiting_probe=self.collector.has_waiters
        )
        self.safety.attach(self.hooks)
        self.collector.attach(self.hooks)
        self.nodes = []

    def add_nodes(self, factory, n: int, **kwargs):
        for i in range(n):
            node = factory(i, n, self.env, self.hooks, **kwargs)
            self.network.register(node)
            self.nodes.append(node)
        for node in self.nodes:
            node.start()
        return self.nodes

    def request(self, node_id: int) -> None:
        self.collector.on_requested(node_id)
        self.nodes[node_id].request_cs()

    def auto_release_after(self, hold: float) -> None:
        """Subscribe a driver that releases ``hold`` after each grant."""

        def on_granted(node_id: int) -> None:
            self.sim.schedule(hold, self.nodes[node_id].release_cs)

        self.hooks.subscribe_granted(on_granted)

    def run(self, until=None) -> float:
        return self.sim.run(until=until)


@pytest.fixture
def harness():
    return Harness()


def make_harness(seed: int = 0, **kw) -> Harness:
    return Harness(seed=seed, **kw)
