"""The unified execution engine.

:class:`Engine` is the **single construction path** for simulation
runs: it wires kernel + network + metrics + safety + algorithm nodes
+ workload drivers from a :class:`~repro.workload.scenario.Scenario`,
exactly once, in one place.  Every consumer — the public
:func:`run_scenario`, the CLI (including its traced variant), the
campaign/parallel experiment pipelines, and the benchmarks — builds
runs through it instead of hand-wiring the pieces.

Wiring order is part of the determinism contract and mirrors the
historical ``run_scenario`` exactly (same hook subscription order,
same schedule-call order, hence the same kernel ``seq`` numbers):

1. kernel, rng registry, network, hooks, env;
2. safety monitor then metrics collector subscribe to the hooks;
3. algorithm nodes are constructed and registered in node-id order;
4. per-node drivers are constructed and subscribed in node-id order;
5. ``start()`` starts nodes (in order), then drivers (in order);
6. ``run()`` drains the kernel and finalises the
   :class:`~repro.metrics.records.RunResult`.

Observers (trace recorders, message taps, fault injection) may grab
``engine.network`` / ``engine.sim`` / ``engine.hooks`` between
construction and :meth:`Engine.start` — nothing is sent before then.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.metrics.collector import MetricsCollector
from repro.metrics.counters import COUNTERS, UndeclaredCounterError
from repro.metrics.records import RunResult
from repro.metrics.safety import SafetyMonitor
from repro.mutex.base import Hooks, SimEnv
from repro.net.channels import RawChannel
from repro.net.faults import FaultPlan, FaultyChannel
from repro.net.network import Network
from repro.net.retx import ReliableChannel, normalize_retx
from repro.registry import get_algorithm
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.streams import (
    NODE_KIND_DRIVER,
    STREAM_NET_DELAY,
    STREAM_NET_FAULTS,
    STREAM_NET_RETX,
)
from repro.workload.arrivals import TraceArrivals
from repro.workload.driver import NodeDriver
from repro.workload.runner import IncompleteRunError
from repro.workload.scenario import Scenario

__all__ = ["Engine", "run_scenario"]


class Engine:
    """Owns one scenario's full execution stack, construction to result."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.sim = Simulator(max_events=scenario.max_events)
        self.rngs = RngRegistry(scenario.seed)
        # Fault fabric: drop/dup/reorder wrap the channel discipline
        # (their own named stream, so delay/workload draws — and hence
        # clean runs — are untouched); partition/crash schedules are
        # injected as kernel events in start().  A spec that
        # normalizes to clean builds the exact pre-fault stack.
        self._fault_plan = FaultPlan.from_spec(
            scenario.faults, n_nodes=scenario.n_nodes
        )
        channel = scenario.channel
        self.fault_channel: Optional[FaultyChannel] = None
        if self._fault_plan is not None and self._fault_plan.channel_faults:
            self.fault_channel = FaultyChannel(
                channel or RawChannel(),
                self._fault_plan,
                self.rngs.stream(STREAM_NET_FAULTS),
            )
            channel = self.fault_channel
        # Reliable delivery wraps outermost: each retransmission
        # attempt re-enters the fault fabric (so retransmits compose
        # with drop/dup/reorder) and the discipline sees the fault
        # plan's outage schedule to retransmit past partitions and
        # crash windows.  retx=() builds the exact pre-retx stack.
        self._retx = normalize_retx(scenario.retx)
        self.reliable_channel: Optional[ReliableChannel] = None
        if self._retx:
            self.reliable_channel = ReliableChannel(
                channel or RawChannel(),
                self._retx,
                self.rngs.stream(STREAM_NET_RETX),
                plan=self._fault_plan,
            )
            channel = self.reliable_channel
        self.network = Network(
            self.sim,
            delay_model=scenario.delay_model,
            channel=channel,
            rng=self.rngs.stream(STREAM_NET_DELAY),
        )
        self.hooks = Hooks()
        self.env = SimEnv(self.sim, self.network, self.rngs)
        self.collector = MetricsCollector(lambda: self.sim.now)
        self.safety = SafetyMonitor(
            lambda: self.sim.now, waiting_probe=self.collector.has_waiters
        )
        self.safety.attach(self.hooks)
        self.collector.attach(self.hooks)

        factory = get_algorithm(scenario.algorithm)
        self.nodes = [
            factory(i, scenario.n_nodes, self.env, self.hooks, **scenario.algo_kwargs)
            for i in range(scenario.n_nodes)
        ]
        for node in self.nodes:
            self.network.register(node)

        if isinstance(scenario.arrivals, TraceArrivals):
            scenario.arrivals.bind_clock(lambda: self.sim.now)

        self.drivers: List[NodeDriver] = []
        for node in self.nodes:
            driver = NodeDriver(
                self.env,
                node,
                scenario.arrivals,
                scenario.cs_time,
                self.collector,
                self.rngs.node_stream(NODE_KIND_DRIVER, node.node_id),
                issue_deadline=scenario.issue_deadline,
            )
            self.hooks.subscribe_granted(driver.on_granted)
            self.hooks.subscribe_released(driver.on_released)
            self.drivers.append(driver)

        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start nodes then drivers.  Idempotent.

        Fault schedules (partition cut/heal windows, crash instants)
        are enqueued first: pure data, no randomness, and clean runs
        enqueue nothing — so their kernel ``seq`` numbers are exactly
        those of a pre-fault build.
        """
        if self._started:
            return
        self._started = True
        self._schedule_faults()
        for node in self.nodes:
            node.start()
        for driver in self.drivers:
            driver.start()

    def _schedule_faults(self) -> None:
        plan = self._fault_plan
        if plan is None or not plan.scheduled_faults:
            return
        network = self.network

        def _cut(a, b) -> None:
            for x in a:
                for y in b:
                    network.partition(x, y)

        def _heal(a, b) -> None:
            for x in a:
                for y in b:
                    network.heal(x, y)

        for t_cut, t_heal, group_a, group_b in plan.partitions:
            # start() runs at t=0, so a relative delay IS the
            # absolute fault time.
            self.sim.schedule_fast(
                t_cut, lambda a=group_a, b=group_b: _cut(a, b)
            )
            self.sim.schedule_fast(
                t_heal, lambda a=group_a, b=group_b: _heal(a, b)
            )
        for node_id, t in plan.crashes:
            self.sim.schedule_fast(t, lambda n=node_id: network.fail_node(n))
        for node_id, t in plan.recovers:
            self.sim.schedule_fast(
                t, lambda n=node_id: self._recover_fault(n)
            )

    def _recover_fault(self, node_id: int) -> None:
        """Revive a crashed node: traffic flows again, then the node's
        ``rejoin`` hook (if it has one) re-announces pending work and
        resyncs state — RCV resyncs its SI table through SYNC_REQ/
        SYNC_REP exchanges; algorithms without a hook (Maekawa, the
        contrast case) just rejoin silently with stale state."""
        self.network.recover_node(node_id)
        rejoin = getattr(self.nodes[node_id], "rejoin", None)
        if rejoin is not None:
            rejoin()

    def run(self, *, require_completion: bool = True) -> RunResult:
        """Execute the scenario to its end and return the result.

        With ``require_completion`` (default), a run in which any
        issued request was never granted+released raises
        :class:`~repro.workload.runner.IncompleteRunError` —
        surfacing deadlock or starvation instead of silently
        reporting partial metrics.
        """
        self.start()
        self.sim.run(until=self.scenario.drain_deadline)
        result = self._finalize()
        if require_completion and not result.all_completed():
            incomplete = [
                r.node_id for r in result.records if not r.completed
            ]
            raise IncompleteRunError(
                f"{len(incomplete)} of {result.issued_count} requests never "
                f"completed (nodes {sorted(set(incomplete))[:10]}…) — "
                f"liveness failure in algorithm {self.scenario.algorithm!r}",
                result,
            )
        return result

    # ------------------------------------------------------------------
    def _finalize(self) -> RunResult:
        extra: Dict[str, float] = {}
        for node in self.nodes:
            snap = getattr(node, "counter_snapshot", None)
            if snap is None:
                continue
            for key, value in snap().items():
                extra[key] = extra.get(key, 0) + value
        if self.fault_channel is not None:
            # Only fault runs carry these keys — clean results stay
            # bit-for-bit identical to pre-fault builds.
            extra["net_fault_drops"] = self.fault_channel.dropped
            extra["net_fault_dups"] = self.fault_channel.duplicated
        if self.reliable_channel is not None:
            # Likewise, only retx runs carry the transport counters.
            extra["net_retx_retransmits"] = self.reliable_channel.retransmits
            extra["net_retx_suppressed"] = self.reliable_channel.suppressed
            extra["net_retx_giveups"] = self.reliable_channel.giveups
            extra["net_retx_acks_lost"] = self.reliable_channel.acks_lost
        undeclared = extra.keys() - COUNTERS.keys()
        if undeclared:
            raise UndeclaredCounterError(
                f"run emitted counters {sorted(undeclared)} that COUNTERS "
                "in src/repro/metrics/counters.py does not declare — "
                "register each there with its meaning"
            )
        return self.collector.finalize(
            algorithm=self.scenario.algorithm,
            n_nodes=self.scenario.n_nodes,
            seed=self.scenario.seed,
            horizon=self.sim.now,
            network_stats=self.network.stats,
            sync_delays=self.safety.sync_delays,
            extra=extra,
        )


def run_scenario(
    scenario: Scenario,
    *,
    require_completion: bool = True,
) -> RunResult:
    """Run ``scenario`` through the engine and return its result.

    This is the canonical implementation behind
    :func:`repro.workload.runner.run_scenario` (kept there as the
    stable public import path).
    """
    return Engine(scenario).run(require_completion=require_completion)
