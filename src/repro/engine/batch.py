"""One cell family under many seeds: ``CellTemplate(spec).run(seed)``.

A seed loop over the one construction path — each run is
``run_scenario(replace(spec, seed=seed).build_scenario())`` — kept
importable for callers that iterate seeds themselves; grids of cells
go through :func:`repro.experiments.parallel.run_cells`.
"""

from __future__ import annotations

from dataclasses import replace

from repro.engine.engine import run_scenario
from repro.metrics.records import RunResult

__all__ = ["CellTemplate"]


class CellTemplate:
    """A :class:`~repro.experiments.spec.CellSpec` with its seed
    factored out; :attr:`key` — the normalized spec, seed zeroed — is
    the family's identity."""

    def __init__(self, spec) -> None:
        self.spec = self.key = replace(spec.normalized(), seed=0)

    def run(self, seed: int) -> RunResult:
        return run_scenario(replace(self.spec, seed=seed).build_scenario())
