"""Deterministic discrete-event simulation kernel.

This package is the testbed substrate on which the paper's evaluation
runs.  It provides:

* :class:`~repro.sim.kernel.Simulator` — a heap-based event scheduler
  with simulated time, timers, and a hard event budget;
* :class:`~repro.sim.kernel.Handle` — cancellable timer handles;
* :class:`~repro.sim.rng.RngRegistry` — named, independently seeded
  ``random.Random`` streams so every component draws from its own
  reproducible source;
* :class:`~repro.sim.process.Actor` — a minimal message-driven process
  abstraction used by network nodes and workload drivers.

Everything is deterministic given ``(scenario, seed)``.
"""

from repro.sim.kernel import (
    EventBudgetExceeded,
    Handle,
    SimulationError,
    Simulator,
)
from repro.sim.process import Actor
from repro.sim.rng import RngRegistry, spawn_seed

__all__ = [
    "Actor",
    "EventBudgetExceeded",
    "Handle",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "spawn_seed",
]
