"""Per-node request driver.

Implements the application side of the mutex API: issue requests per
the arrival process, hold the CS for the configured execution time,
release, repeat.  The paper's defaults are a constant CS execution
time Tc = 10 time units.

The driver programs against the :class:`~repro.mutex.base.Env`
protocol (``now``/``schedule_once``), not the simulator directly —
its issue/release events are fire-once and never cancelled, so they
ride the environment's handle-free fast tier, and the same driver
logic works over any Env implementation.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.metrics.collector import MetricsCollector
from repro.mutex.base import Env, MutexNode
from repro.workload.arrivals import ArrivalProcess

__all__ = ["NodeDriver"]


class NodeDriver:
    """Drives one algorithm node through request/hold/release cycles."""

    def __init__(
        self,
        env: Env,
        node: MutexNode,
        arrivals: ArrivalProcess,
        cs_time: Callable[[random.Random], float],
        collector: MetricsCollector,
        rng: random.Random,
        *,
        issue_deadline: Optional[float] = None,
    ) -> None:
        self.env = env
        self.node = node
        self.arrivals = arrivals
        self.cs_time = cs_time
        self.collector = collector
        self.rng = rng
        #: no new requests are *issued* after this simulated time;
        #: in-flight requests still drain (paper: fixed-horizon runs).
        self.issue_deadline = issue_deadline
        self.requests_issued = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        delay = self.arrivals.first_delay(self.node.node_id, self.rng)
        self._schedule_issue(delay)

    def _schedule_issue(self, delay: Optional[float]) -> None:
        if delay is None:
            return
        target = self.env.now() + delay
        if self.issue_deadline is not None and target > self.issue_deadline:
            return
        self.env.schedule_once(delay, self._issue)

    def _issue(self) -> None:
        self.collector.on_requested(self.node.node_id)
        self.requests_issued += 1
        self.node.request_cs()

    # hook subscribers (the engine subscribes them to this node only) --
    def on_granted(self, node_id: int) -> None:
        hold = self.cs_time(self.rng)
        self.env.schedule_once(hold, self.node.release_cs)

    def on_released(self, node_id: int) -> None:
        self._schedule_issue(
            self.arrivals.next_delay(self.node.node_id, self.rng)
        )
