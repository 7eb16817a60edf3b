"""Per-node request driver.

Implements the application side of the mutex API: issue requests per
the arrival process, hold the CS for the configured execution time,
release, repeat.  The paper's defaults are a constant CS execution
time Tc = 10 time units.  The driver holds the node's run state — the
count of requests issued — and asks the stateless arrival process for
each next wait.

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
        #: requests issued so far — the run state the (stateless)
        #: arrival process is asked about
        self.issued = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._schedule_next()

    def _schedule_next(self) -> None:
        now = self.env.now()
        delay = self.arrivals.delay(self.node.node_id, self.issued, now, self.rng)
        if delay is None:
            return
        if self.issue_deadline is not None and now + delay > self.issue_deadline:
            return
        self.env.schedule_once(delay, self.issue)

    def issue(self) -> None:
        self.collector.on_requested(self.node.node_id)
        self.issued += 1
        self.node.request_cs()

    # hook subscribers (the engine subscribes them to this node only) --
    def on_granted(self, node_id: int) -> None:
        hold = self.cs_time(self.rng)
        self.env.schedule_once(hold, self.node.release_cs)

    def on_released(self, node_id: int) -> None:
        self._schedule_next()
