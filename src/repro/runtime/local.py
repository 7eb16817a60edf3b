"""In-process asyncio cluster.

All N algorithm nodes live on one event loop; ``send`` schedules the
destination's ``on_message`` after a configurable delay (with
optional jitter, which — as in the simulator — makes delivery
non-FIFO and exercises the paper's weakest-assumption claim in real
time).
"""

from __future__ import annotations

import asyncio
import random
from typing import List, Optional

from repro.mutex.base import Hooks, MutexNode
from repro.net.message import Message
from repro.registry import get_algorithm
from repro.runtime.env import AsyncEnv
from repro.runtime.facade import LockFacade
from repro.sim.rng import spawn_seed
from repro.sim.streams import STREAM_NET_DELAY

__all__ = ["LocalCluster"]


class LocalCluster(LockFacade):
    """N algorithm nodes sharing one event loop.

    Parameters
    ----------
    n_nodes / algorithm / algo_kwargs:
        Same meaning as in :class:`~repro.workload.scenario.Scenario`.
    delay:
        Mean one-way message delay in (real) seconds.
    jitter:
        Uniform ± jitter added to each delay; nonzero jitter permits
        out-of-order delivery.
    seed:
        Seeds the delay jitter and any algorithm randomness.
    """

    def __init__(
        self,
        n_nodes: int,
        *,
        algorithm: str = "rcv",
        delay: float = 0.002,
        jitter: float = 0.0,
        seed: int = 0,
        algo_kwargs: Optional[dict] = None,
    ) -> None:
        if delay < 0 or jitter < 0 or jitter > delay:
            raise ValueError("need 0 <= jitter <= delay")
        super().__init__()
        self.n_nodes = n_nodes
        self.algorithm = algorithm
        self.delay = delay
        self.jitter = jitter
        self._delay_rng = random.Random(spawn_seed(seed, STREAM_NET_DELAY))
        self.hooks = Hooks()
        self.env = AsyncEnv(self._send, seed=seed)
        factory = get_algorithm(algorithm)
        self.nodes: List[MutexNode] = [
            factory(i, n_nodes, self.env, self.hooks, **(algo_kwargs or {}))
            for i in range(n_nodes)
        ]
        self.hooks.subscribe_granted(self._on_granted)
        self.messages_sent = 0
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._started:
            return
        for node in self.nodes:
            node.start()
        self._started = True

    async def stop(self) -> None:
        # Give in-flight deliveries a chance to settle before teardown
        # so cancellation doesn't strand a grant.
        await asyncio.sleep(self.delay * 2)
        self._started = False

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _send(self, src: int, dst: int, message: Message) -> None:
        if src == dst:
            raise ValueError("self-send")
        self.messages_sent += 1
        d = self.delay
        if self.jitter:
            d = self._delay_rng.uniform(d - self.jitter, d + self.jitter)
        loop = asyncio.get_running_loop()
        node = self.nodes[dst]
        loop.call_later(max(0.0, d), node.on_message, src, message)
