"""Unified execution layer: one construction path for every run.

Public surface:

* :class:`~repro.engine.engine.Engine` — owns kernel + network +
  metrics + safety wiring for one scenario; observers may attach
  between construction and ``start()``;
* :func:`~repro.engine.engine.run_scenario` — build + run + result;
* :class:`~repro.engine.batch.CellTemplate` — one cell family run
  under many seeds (``CellTemplate(spec).run(seed)``);
* :data:`IncompleteRunError` — re-exported liveness failure.

See ARCHITECTURE.md for the layer diagram and determinism rules.
"""

from repro.engine.batch import CellTemplate
from repro.engine.engine import Engine, run_scenario
from repro.workload.runner import IncompleteRunError

__all__ = [
    "CellTemplate",
    "Engine",
    "IncompleteRunError",
    "run_scenario",
]
