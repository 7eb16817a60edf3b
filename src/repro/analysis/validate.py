"""Simulation-vs-theory comparison."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.theory import MODELS
from repro.metrics.records import RunResult
from repro.registry import get_algorithm

__all__ = ["TheoryComparison", "compare_to_theory"]


@dataclass
class TheoryComparison:
    """Measured values next to the model's predicted bounds."""

    algorithm: str
    n_nodes: int
    measured_nme: float
    predicted_nme_low: float
    predicted_nme_high: float
    measured_sync: float
    predicted_sync: float

    @property
    def nme_within_bounds(self) -> bool:
        # Allow 15% slack above the closed-form band: the bounds are
        # steady-state idealizations (no warm-up, no drain effects).
        hi = self.predicted_nme_high * 1.15
        lo = self.predicted_nme_low * 0.85
        return lo <= self.measured_nme <= hi

    @property
    def sync_within_bounds(self) -> bool:
        if self.predicted_sync == 0:
            return self.measured_sync == 0
        return self.measured_sync <= self.predicted_sync * 1.25

    def row(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "n": self.n_nodes,
            "nme (sim)": round(self.measured_nme, 2),
            "nme (theory)": f"{self.predicted_nme_low:.1f}..{self.predicted_nme_high:.1f}",
            "nme ok": self.nme_within_bounds,
            "sync (sim)": round(self.measured_sync, 2),
            "sync (theory)": round(self.predicted_sync, 2),
            "sync ok": self.sync_within_bounds,
        }


def compare_to_theory(result: RunResult, *, tn: float = 5.0) -> TheoryComparison:
    """Build a :class:`TheoryComparison` for one run, against the
    model of the class the registry resolves ``result.algorithm`` to
    (a second name such as ``"broadcast"`` is its class's model)."""
    key = get_algorithm(result.algorithm).algorithm_name
    model = MODELS[key]
    lo, hi = model.nme(result.n_nodes)
    return TheoryComparison(
        algorithm=key,
        n_nodes=result.n_nodes,
        measured_nme=result.nme,
        predicted_nme_low=lo,
        predicted_nme_high=hi,
        measured_sync=result.mean_sync_delay,
        predicted_sync=model.sync_delay(tn),
    )
