"""Arrival processes: when does each node want the CS?

The contract respects the paper's model of one outstanding request
per node: :meth:`ArrivalProcess.delay` is asked when a node starts
and each time it completes a request, and answers the wait until the
node's next request, or ``None`` for "no more requests".

An arrival process is pure data: the caller passes in everything that
changes during a run (how many requests the node has issued, the
simulated time, the node's rng), so one process serves any number of
runs and nothing is reset between them.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import Dict, Optional, Sequence, Tuple

__all__ = [
    "ArrivalProcess",
    "BurstArrivals",
    "PoissonArrivals",
    "TraceArrivals",
]


class ArrivalProcess(ABC):
    """Per-node request timing."""

    @abstractmethod
    def delay(
        self, node_id: int, issued: int, now: float, rng: random.Random
    ) -> Optional[float]:
        """The wait from ``now`` until the node issues its request
        number ``issued`` (0 for the first), or None when it has no
        more."""


class BurstArrivals(ArrivalProcess):
    """All nodes request at ``start`` and repeat ``requests_per_node``
    times back-to-back — the Figure 4/5 workload (default: once)."""

    def __init__(self, start: float = 0.0, requests_per_node: int = 1) -> None:
        if requests_per_node < 1:
            raise ValueError("requests_per_node must be >= 1")
        self.start = float(start)
        if not 0 <= self.start < math.inf:
            raise ValueError(f"start must be a finite time >= 0, got {start!r}")
        self.requests_per_node = int(requests_per_node)

    def delay(
        self, node_id: int, issued: int, now: float, rng: random.Random
    ) -> Optional[float]:
        if issued >= self.requests_per_node:
            return None
        return max(0.0, self.start - now)


class PoissonArrivals(ArrivalProcess):
    """Exponential inter-arrival times with mean ``1/rate``.

    The paper's §6.2 model: "requests for CS execution arrive at a
    site according to Poisson distribution with parameter λ".  Because
    a node may hold only one outstanding request, the exponential
    clock restarts when the previous request completes.
    """

    def __init__(self, rate: float) -> None:
        self.rate = float(rate)
        if not 0 < self.rate < math.inf:
            raise ValueError(f"rate must be a finite number > 0, got {rate!r}")

    def delay(
        self, node_id: int, issued: int, now: float, rng: random.Random
    ) -> Optional[float]:
        return rng.expovariate(self.rate)

    @classmethod
    def from_mean_interarrival(cls, mean: float) -> "PoissonArrivals":
        """Construct from the paper's x-axis quantity 1/λ."""
        if mean <= 0:
            raise ValueError("mean inter-arrival must be positive")
        return cls(1.0 / mean)


class TraceArrivals(ArrivalProcess):
    """Explicit absolute request times per node.

    ``times[node_id]`` is a sequence of absolute issue times (sorted
    here).  If a scheduled time has already passed when the previous
    request completes, the next request is issued immediately — the
    process never issues overlapping requests.
    """

    def __init__(self, times: Dict[int, Sequence[float]]) -> None:
        self._times: Dict[int, Tuple[float, ...]] = {
            nid: tuple(sorted(map(float, seq))) for nid, seq in times.items()
        }
        for nid, seq in self._times.items():
            if not all(map(math.isfinite, seq)):
                raise ValueError(
                    f"trace times must be finite, got {seq!r} for node {nid}"
                )

    def delay(
        self, node_id: int, issued: int, now: float, rng: random.Random
    ) -> Optional[float]:
        seq = self._times.get(node_id, ())
        if issued >= len(seq):
            return None
        return max(0.0, seq[issued] - now)
