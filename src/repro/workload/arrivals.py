"""Arrival processes: when does each node want the CS?

The contract respects the paper's model of one outstanding request
per node: :meth:`first_delay` is the wait before a node's first
request, and :meth:`next_delay` is the wait between completing one
request and issuing the next.  ``None`` means "no more requests".
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence

__all__ = [
    "ArrivalProcess",
    "BurstArrivals",
    "PoissonArrivals",
    "TraceArrivals",
]


class ArrivalProcess(ABC):
    """Per-node request timing."""

    @abstractmethod
    def first_delay(self, node_id: int, rng: random.Random) -> Optional[float]:
        """Delay from scenario start to the node's first request."""

    @abstractmethod
    def next_delay(self, node_id: int, rng: random.Random) -> Optional[float]:
        """Delay from a request's completion to the next request."""


class BurstArrivals(ArrivalProcess):
    """All nodes request at ``start`` and repeat ``requests_per_node``
    times back-to-back — the Figure 4/5 workload (default: once)."""

    def __init__(self, start: float = 0.0, requests_per_node: int = 1) -> None:
        if requests_per_node < 1:
            raise ValueError("requests_per_node must be >= 1")
        if start < 0:
            raise ValueError("start must be non-negative")
        self.start = float(start)
        self.requests_per_node = int(requests_per_node)
        self._issued: Dict[int, int] = {}

    def first_delay(self, node_id: int, rng: random.Random) -> Optional[float]:
        self._issued[node_id] = 1
        return self.start

    def next_delay(self, node_id: int, rng: random.Random) -> Optional[float]:
        issued = self._issued.get(node_id, 0)
        if issued >= self.requests_per_node:
            return None
        self._issued[node_id] = issued + 1
        return 0.0


class PoissonArrivals(ArrivalProcess):
    """Exponential inter-arrival times with mean ``1/rate``.

    The paper's §6.2 model: "requests for CS execution arrive at a
    site according to Poisson distribution with parameter λ".  Because
    a node may hold only one outstanding request, the exponential
    clock restarts when the previous request completes.
    """

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)

    def first_delay(self, node_id: int, rng: random.Random) -> Optional[float]:
        return rng.expovariate(self.rate)

    def next_delay(self, node_id: int, rng: random.Random) -> Optional[float]:
        return rng.expovariate(self.rate)

    @classmethod
    def from_mean_interarrival(cls, mean: float) -> "PoissonArrivals":
        """Construct from the paper's x-axis quantity 1/λ."""
        if mean <= 0:
            raise ValueError("mean inter-arrival must be positive")
        return cls(1.0 / mean)


class TraceArrivals(ArrivalProcess):
    """Explicit absolute request times per node.

    ``times[node_id]`` is a sorted sequence of absolute issue times.
    If a scheduled time has already passed when the previous request
    completes, the next request is issued immediately — the process
    never issues overlapping requests.
    """

    def __init__(self, times: Dict[int, Sequence[float]]) -> None:
        self._times: Dict[int, List[float]] = {
            nid: sorted(float(t) for t in seq) for nid, seq in times.items()
        }
        self._cursor: Dict[int, int] = {nid: 0 for nid in self._times}
        self._clock: Optional[callable] = None

    def bind_clock(self, clock) -> None:
        """The runner injects the simulation clock before starting."""
        self._clock = clock

    def _next(self, node_id: int) -> Optional[float]:
        seq = self._times.get(node_id)
        if seq is None:
            return None
        i = self._cursor[node_id]
        if i >= len(seq):
            return None
        self._cursor[node_id] = i + 1
        if self._clock is None:
            raise RuntimeError("TraceArrivals clock not bound")
        return max(0.0, seq[i] - self._clock())

    def first_delay(self, node_id: int, rng: random.Random) -> Optional[float]:
        return self._next(node_id)

    def next_delay(self, node_id: int, rng: random.Random) -> Optional[float]:
        return self._next(node_id)
