"""Scenario description: everything needed to reproduce one run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.net.delay import DelayModel
from repro.workload.arrivals import ArrivalProcess

__all__ = [
    "Scenario",
    "constant_cs_time",
    "uniform_cs_time",
    "exponential_cs_time",
]


def constant_cs_time(value: float) -> Callable:
    """CS hold time of exactly ``value`` — the paper's Tc = 10."""

    def fn(rng) -> float:
        return value

    fn.__name__ = f"constant_cs_time_{value}"
    return fn


def uniform_cs_time(low: float, high: float) -> Callable:
    """CS hold time uniform on ``[low, high]``."""
    if not (0 <= low <= high):
        raise ValueError("require 0 <= low <= high")

    def fn(rng) -> float:
        return rng.uniform(low, high)

    fn.__name__ = f"uniform_cs_time_{low}_{high}"
    return fn


def exponential_cs_time(mean: float, minimum: float = 0.0) -> Callable:
    """Exponential CS hold time with the given mean, floored at
    ``minimum`` (heavy-tailed hold times stress the ordering layer)."""
    if mean <= 0:
        raise ValueError("mean must be positive")
    if minimum < 0:
        raise ValueError("minimum must be non-negative")

    def fn(rng) -> float:
        return minimum + rng.expovariate(1.0 / mean)

    fn.__name__ = f"exponential_cs_time_{mean}_{minimum}"
    return fn


@dataclass
class Scenario:
    """A fully specified experiment run.

    Pure data: nothing a scenario holds changes during a run, so one
    scenario runs any number of times to the same result.

    ``algorithm`` names a registered algorithm (see
    :data:`repro.experiments.registry.ALGORITHMS`); ``algo_kwargs``
    are passed to its node factory (e.g. ``config=RCVConfig(...)`` for
    RCV, ``quorum_system="grid"`` for Maekawa).
    """

    algorithm: str
    n_nodes: int
    arrivals: ArrivalProcess
    seed: int = 0
    cs_time: Callable = field(default_factory=lambda: constant_cs_time(10.0))
    delay_model: Optional[DelayModel] = None  # default: ConstantDelay(5)
    #: per-pair FIFO delivery (a TCP-like transport); False is the
    #: paper's non-FIFO channel, on which a later send may overtake
    fifo: bool = False
    #: stop issuing new requests after this simulated time (None =
    #: only the arrival process limits the run, e.g. burst workloads)
    issue_deadline: Optional[float] = None
    #: hard wall on simulated time while draining (safety net)
    drain_deadline: Optional[float] = None
    algo_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: adversarial-network fault spec — a tuple of fault tuples per
    #: the grammar in :mod:`repro.net.faults` (``("drop", p)``,
    #: ``("dup", p)``, ``("reorder", window)``, partition/crash
    #: schedules).  ``()`` (the default) is the clean fabric and
    #: leaves the run bit-for-bit identical to pre-fault builds.
    faults: Tuple = ()
    #: reliable-delivery spec ``("retx", rto, backoff, max_retries)``
    #: per :func:`repro.net.retx.normalize_retx` — opt-in ack/
    #: retransmit discipline layered over the fault fabric.  ``()``
    #: (the default) builds the exact pre-retx stack: no wrapper, no
    #: ``net/retx`` stream, no ``net_retx_*`` counters.
    retx: Tuple = ()

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        for name in ("issue_deadline", "drain_deadline"):
            value = getattr(self, name)
            # NaN compares false both ways: drivers would never stop
            # issuing and run(until=nan) never reach its horizon
            if value is not None and not 0 <= value < float("inf"):
                raise ValueError(
                    f"{name} must be a finite time >= 0, got {value!r}"
                )
