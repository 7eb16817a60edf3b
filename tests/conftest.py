"""Shared test helpers."""

from __future__ import annotations

from repro.engine import Engine
from repro.workload import Scenario, TraceArrivals, constant_cs_time


def started_engine(
    algorithm: str, n_nodes: int, *, hold: float = 10.0, arrivals=None, **fields
) -> Engine:
    """A started :class:`Engine`: the world every protocol test runs in.

    Each node's driver releases ``hold`` after each grant.  Requests
    come from ``arrivals`` (none by default) or, issued now, from
    ``engine.drivers[i].issue()``; ``fields`` are further
    :class:`Scenario` fields.  Step time with ``engine.sim.run``.
    """
    engine = Engine(
        Scenario(
            algorithm,
            n_nodes,
            TraceArrivals({}) if arrivals is None else arrivals,
            cs_time=constant_cs_time(hold),
            **fields,
        )
    )
    engine.start()
    return engine
