"""The unified execution engine.

:class:`Engine` is the **single construction path** for simulation
runs: it wires kernel + network + metrics + safety + algorithm nodes
+ workload drivers from a :class:`~repro.workload.scenario.Scenario`,
exactly once, in one place.  Every consumer — the public
:func:`run_scenario`, the CLI's ``run`` (traced or not), the
campaign/parallel pipelines, the benchmarks and the protocol tests —
builds runs through it instead of hand-wiring the pieces.

Wiring order is part of the determinism contract and mirrors the
historical ``run_scenario`` exactly (same hook subscription order,
same schedule-call order, hence the same kernel ``seq`` numbers):

1. kernel, rng registry, network, hooks, env;
2. safety monitor then metrics collector subscribe to the hooks;
3. algorithm nodes are constructed and registered in node-id order;
4. per-node drivers are constructed in node-id order, each subscribed
   to its own node's upcalls only (they run after every listener that
   subscribed to all nodes);
5. ``start()`` starts nodes (in order), then drivers (in order);
6. ``run()`` drains the kernel — or ends a run that has stalled —
   and finalises the :class:`~repro.metrics.records.RunResult`;
7. :func:`run_scenario` then tears the engine down
   (:meth:`Engine._teardown`), so a finished cell leaves no cyclic
   garbage.

Everything that changes during a run — the kernel, the channel
(FIFO's last delivery per pair), each driver's count of requests
issued, the fault and retx counters — is built here, per engine; the
scenario is only read, so one scenario runs any number of times to
one result and nothing is reset between runs.

**Every run ends.**  A scenario with a drain deadline ends there.
One without is watched (:meth:`Simulator.watch`, which adds no event):
once requests wait, none holds the CS, and a stretch of simulated time
passes with nothing issued, granted or released, the run has
**stalled** and ends at that instant with the waiting requests
incomplete.  The stretch is derived from the scenario
(:meth:`Engine.stall_stretch`); watching starts once the fault plan's
last cut, heal, crash or recover is past.  A run that drains first
never meets the watch and ends at its last event, as before.

It is also the one place an observer attaches: between construction
and :meth:`Engine.run`, when nothing has been sent yet, through
``engine.network`` / ``engine.sim`` / ``engine.hooks`` —
``TraceRecorder(engine)`` takes all three in one call.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.metrics.collector import MetricsCollector
from repro.metrics.counters import COUNTERS, UndeclaredCounterError
from repro.metrics.records import RunResult
from repro.metrics.safety import SafetyMonitor
from repro.mutex.base import Hooks, SimEnv
from repro.net.channels import FifoChannel, RawChannel
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
from repro.workload.driver import NodeDriver
from repro.workload.runner import IncompleteRunError
from repro.workload.scenario import Scenario

__all__ = ["Engine", "run_scenario"]

#: the stall stretch covers this many worst-case hops per node (a
#: request forwarded past every node and a token carried back) ...
STALL_HOPS_PER_NODE = 4
#: ... and this many periods of a node's own recovery timer (a
#: relaunch whose messages are lost again)
STALL_TIMEOUTS = 8


class Engine:
    """Owns one scenario's full execution stack, construction to result."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.sim = Simulator()
        self.rngs = RngRegistry(scenario.seed)
        # Fault fabric: drop/dup/reorder wrap the channel discipline
        # (their own named stream, so delay/workload draws — and hence
        # clean runs — are untouched); partitions and crashes are the
        # plan's to judge, asked by the Network or, under retx, by the
        # ReliableChannel.  A spec that normalizes to clean builds the
        # exact pre-fault stack.
        self._fault_plan = FaultPlan.from_spec(
            scenario.faults, n_nodes=scenario.n_nodes
        )
        # The channel is built here, per run: FIFO's per-pair last
        # delivery is this run's state, never the scenario's.
        channel = FifoChannel() if scenario.fifo else RawChannel()
        self.fault_channel: Optional[FaultyChannel] = None
        if self._fault_plan is not None and self._fault_plan.channel_faults:
            self.fault_channel = FaultyChannel(
                channel,
                self._fault_plan,
                self.rngs.stream(STREAM_NET_FAULTS),
            )
            channel = self.fault_channel
        # Reliable delivery wraps outermost: each retransmission
        # attempt re-enters the fault fabric (so retransmits compose
        # with drop/dup/reorder) and asks the plan about outages to
        # retransmit past partitions and crash windows — so the
        # Network gets no plan.  retx=() builds the exact pre-retx
        # stack.
        self._retx = normalize_retx(scenario.retx)
        self.reliable_channel: Optional[ReliableChannel] = None
        if self._retx:
            self.reliable_channel = ReliableChannel(
                channel,
                self._retx,
                self.rngs.stream(STREAM_NET_RETX),
                plan=self._fault_plan,
            )
            channel = self.reliable_channel
        plan = self._fault_plan
        self.network = Network(
            self.sim,
            delay_model=scenario.delay_model,
            channel=channel,
            rng=self.rngs.stream(STREAM_NET_DELAY),
            outages=(
                plan
                if plan is not None and plan.scheduled_faults and not self._retx
                else None
            ),
        )
        self.hooks = Hooks()
        self.env = SimEnv(self.sim, self.network, self.rngs)
        # The clocks close over the kernel, not over the engine, so no
        # observer holds a path back to the engine (see _teardown).
        sim = self.sim
        self.collector = MetricsCollector(lambda: sim.now)
        self.safety = SafetyMonitor(
            lambda: sim.now, waiting_probe=self.collector.has_waiters
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
            self.hooks.subscribe_granted(driver.on_granted, node.node_id)
            self.hooks.subscribe_released(driver.on_released, node.node_id)
            self.drivers.append(driver)

        self._started = False
        #: the instant the run was found stalled, or None
        self.stalled_at: Optional[float] = None
        self._stretch = 0.0
        self._stall_mark = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start nodes then drivers.  Idempotent.

        Recover instants are enqueued before any node starts: pure
        data, no randomness, and clean runs enqueue nothing — so their
        kernel ``seq`` numbers are exactly those of a pre-fault build.
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
        """Schedule each recover instant of the plan: the node's
        ``rejoin`` hook (if it has one) re-announces pending work and
        resyncs state — RCV resyncs its SI table through SYNC_REQ/
        SYNC_REP exchanges; algorithms without a hook (Maekawa, the
        contrast case) just rejoin silently with stale state.  That
        the node's traffic flows again is the plan's to say."""
        plan = self._fault_plan
        if plan is None:
            return
        for node_id, t in plan.recovers:
            rejoin = getattr(self.nodes[node_id], "rejoin", None)
            if rejoin is not None:
                # start() runs at t=0, so a relative delay IS the
                # absolute fault time.
                self.sim.schedule_fast(t, rejoin)

    def run(self, *, require_completion: bool = True) -> RunResult:
        """Execute the scenario to its end and return the result.

        With ``require_completion`` (default), a run in which any
        issued request was never granted+released raises
        :class:`~repro.workload.runner.IncompleteRunError` —
        surfacing deadlock or starvation instead of silently
        reporting partial metrics.
        """
        self.start()
        if self.scenario.drain_deadline is None:
            self._stretch = self.stall_stretch()
        if self._stretch:
            plan = self._fault_plan
            start = plan.last_change if plan is not None else 0.0
            self.sim.watch(
                max(start, self.sim.now) + self._stretch, self._watch_stall
            )
        try:
            self.sim.run(until=self.scenario.drain_deadline)
        finally:
            self.sim.watch(float("inf"), None)
        result = self._finalize()
        if require_completion and not result.all_completed():
            if not result.issued_count:
                raise IncompleteRunError(
                    "no request was issued: the arrival process gave no "
                    "node a request before the issue deadline",
                    result,
                )
            incomplete = [
                r.node_id for r in result.records if not r.completed
            ]
            why = f"liveness failure in algorithm {self.scenario.algorithm!r}"
            if self.stalled_at is not None:
                why = (
                    f"the run stalled: nothing issued, granted or released "
                    f"for {self._stretch:g} time units up to "
                    f"t={self.stalled_at:g} "
                    f"— {why}"
                )
            raise IncompleteRunError(
                f"{len(incomplete)} of {result.issued_count} requests never "
                f"completed (nodes {sorted(set(incomplete))[:10]}…) — {why}",
                result,
            )
        return result

    def stall_stretch(self) -> float:
        """How long requests may wait, with none in the CS and nothing
        issued, granted or released, before the run has stalled.

        Derived from the scenario: :data:`STALL_HOPS_PER_NODE` hops per
        node, a hop being the delay model's bound
        (:meth:`~repro.net.delay.DelayModel.bound`) plus the reorder
        window and, under retx, the wait up to the last retransmission;
        plus :data:`STALL_TIMEOUTS` periods of the nodes' recovery
        timer.  0 (the run is not watched) when the delay model states
        no bound.
        """
        try:
            hop = self.network.delay_model.bound()
        except NotImplementedError:
            return 0.0
        plan = self._fault_plan
        if plan is not None:
            hop += plan.reorder
        if self._retx:
            _, rto, backoff, retries = self._retx
            hop += rto * sum(backoff**k for k in range(retries))
        timeout = max(node.recovery_timeout() or 0.0 for node in self.nodes)
        return (
            STALL_HOPS_PER_NODE * self.scenario.n_nodes * hop
            + STALL_TIMEOUTS * timeout
        )

    def _watch_stall(self) -> Optional[float]:
        """The stall rule, asked each time a stretch has passed: the
        run has stalled when requests still wait exactly as they did a
        stretch ago
        (:meth:`~repro.metrics.collector.MetricsCollector.stall_mark`)."""
        mark = self.collector.stall_mark()
        if mark is not None and mark == self._stall_mark:
            self.stalled_at = self.sim.now
            return None
        self._stall_mark = mark
        return self.sim.now + self._stretch

    def _teardown(self) -> None:
        """Break the run's reference cycles, once its result is built.

        A node holds its env and hooks, the network holds the nodes,
        the hooks hold the drivers and monitors, and the kernel heap
        holds callbacks into all of them: left alone, a finished
        engine is cyclic garbage that only a collector pass frees.
        :func:`run_scenario` calls this in a ``finally``; afterwards
        the engine can no longer run, and refcounting alone frees it.
        """
        self.network.clear()
        self.hooks.clear()
        self.sim.clear()

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
        horizon = self.sim.now
        plan = self._fault_plan
        if plan is not None and self.scenario.drain_deadline is None:
            # A run ends no earlier than the plan's last instant.
            horizon = max(horizon, plan.last_change)
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
            horizon=horizon,
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
    stable public import path).  The engine is torn down once the
    result is built, raising or not, so a finished cell leaves no
    cyclic garbage; build an :class:`Engine` to inspect one after
    its run.
    """
    engine = Engine(scenario)
    try:
        return engine.run(require_completion=require_completion)
    finally:
        engine._teardown()
