"""Message propagation delay models.

The paper fixes the propagation delay between any pair of nodes at
``Tn = 5`` time units "for ease" and notes the constancy is not
necessary.  :class:`ConstantDelay` reproduces the paper's setting;
the stochastic models exercise the non-FIFO claim (a later message
can overtake an earlier one whenever delays vary and the channel
discipline permits it).
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod

__all__ = [
    "DelayModel",
    "ConstantDelay",
    "UniformDelay",
    "ExponentialDelay",
    "JitteredDelay",
    "MatrixDelay",
]


#: a model with no bound is bounded, where one is needed, at this many
#: times its mean (an exponential delay exceeds it once in e^10 ~ 22k)
TAIL_MEANS = 10.0


def _finite(**params: float) -> None:
    """Refuse a NaN or infinite parameter: such a delay would put an
    event at t=nan or t=inf, which the kernel refuses at send time."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


class DelayModel(ABC):
    """Maps ``(src, dst, rng)`` to a propagation delay."""

    @abstractmethod
    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        """Return the delay for one message from ``src`` to ``dst``."""

    def mean(self) -> float:
        """Expected delay, used by the analytical model for Tn."""
        raise NotImplementedError

    def bound(self) -> float:
        """The longest delay, or :data:`TAIL_MEANS` times the mean for
        a model with no longest one; the engine's stall rule scales
        with it.  Raises :class:`NotImplementedError` when the model
        states neither."""
        return TAIL_MEANS * self.mean()

    def pair_constant(self, src: int, dst: int) -> "float | None":
        """The fixed delay for ``(src, dst)``, or None if stochastic.

        A model may return a float here **only if** :meth:`sample`
        for that pair always returns the same value *and consumes no
        randomness* — the network layer uses this to pre-bind
        per-pair delays and skip the sampler (and the rng) entirely
        on its fast path, without perturbing the draw sequence seen
        by genuinely stochastic models.
        """
        return None


class ConstantDelay(DelayModel):
    """Fixed delay; the paper's ``Tn = 5`` setting."""

    def __init__(self, delay: float = 5.0) -> None:
        _finite(delay=delay)
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = float(delay)

    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        return self.delay

    def mean(self) -> float:
        return self.delay

    def bound(self) -> float:
        return self.delay

    def pair_constant(self, src: int, dst: int) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"ConstantDelay({self.delay})"


class UniformDelay(DelayModel):
    """Delay uniform on ``[low, high]``; enables message overtaking."""

    def __init__(self, low: float, high: float) -> None:
        _finite(low=low, high=high)
        if not (0 <= low <= high):
            raise ValueError("require 0 <= low <= high")
        self.low = float(low)
        self.high = float(high)

    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        # Random.uniform's own arithmetic, without its call frame
        return self.low + (self.high - self.low) * rng.random()

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def bound(self) -> float:
        return self.high

    def __repr__(self) -> str:
        return f"UniformDelay({self.low}, {self.high})"


class ExponentialDelay(DelayModel):
    """Exponential delay with given mean, floored at ``minimum``.

    Heavy right tail — the harshest reordering stressor we use in the
    non-FIFO robustness experiments.
    """

    def __init__(self, mean_delay: float, minimum: float = 0.0) -> None:
        _finite(mean_delay=mean_delay, minimum=minimum)
        if mean_delay <= 0:
            raise ValueError("mean_delay must be positive")
        if minimum < 0:
            raise ValueError("minimum must be non-negative")
        self.mean_delay = float(mean_delay)
        self.minimum = float(minimum)
        self._rate = 1.0 / self.mean_delay

    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        # Random.expovariate's own arithmetic, without its call frame:
        # the same floats from the same draws.
        return self.minimum + -math.log(1.0 - rng.random()) / self._rate

    def mean(self) -> float:
        return self.minimum + self.mean_delay

    def __repr__(self) -> str:
        return f"ExponentialDelay(mean={self.mean_delay}, min={self.minimum})"


class MatrixDelay(DelayModel):
    """Per-pair latencies from a :class:`~repro.net.topology.LatencyMatrix`.

    This is how the "suitable for arbitrary network topologies" claim
    (§1) is exercised: messages between distant nodes pay their
    shortest-path latency.  Compose with :class:`JitteredDelay` (pass
    the matrix as its ``base``) for stochastic variants.
    """

    def __init__(self, matrix) -> None:
        if not callable(matrix):
            raise TypeError("matrix must be callable as matrix(src, dst)")
        self.matrix = matrix

    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        return float(self.matrix(src, dst))

    def pair_constant(self, src: int, dst: int) -> float:
        return float(self.matrix(src, dst))

    def mean(self) -> float:
        mean_fn = getattr(self.matrix, "mean_offdiagonal", None)
        if mean_fn is None:
            raise NotImplementedError("matrix does not expose a mean")
        return float(mean_fn())

    def bound(self) -> float:
        max_fn = getattr(self.matrix, "max_latency", None)
        return super().bound() if max_fn is None else float(max_fn())

    def __repr__(self) -> str:
        return f"MatrixDelay({self.matrix!r})"


class JitteredDelay(DelayModel):
    """A base delay plus bounded symmetric jitter.

    ``base`` may be a scalar or a per-pair latency callable (e.g. a
    :class:`~repro.net.topology.LatencyMatrix`), so topological
    distance and random jitter compose.
    """

    def __init__(self, base, jitter: float) -> None:
        if callable(base):
            _finite(jitter=jitter)
        else:
            _finite(base=base, jitter=jitter)
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self._base = base
        self.jitter = float(jitter)

    def _base_delay(self, src: int, dst: int) -> float:
        if callable(self._base):
            return float(self._base(src, dst))
        return float(self._base)

    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        base = self._base_delay(src, dst)
        lo = max(0.0, base - self.jitter)
        return rng.uniform(lo, base + self.jitter)

    def mean(self) -> float:
        if callable(self._base):
            raise NotImplementedError("mean undefined for per-pair base delays")
        # The floor at zero makes the true mean >= base; for the
        # analytical model we report the unclipped center.
        return float(self._base)

    def bound(self) -> float:
        if callable(self._base):
            return MatrixDelay(self._base).bound() + self.jitter
        return float(self._base) + self.jitter

    def __repr__(self) -> str:
        return f"JitteredDelay(base={self._base!r}, jitter={self.jitter})"
