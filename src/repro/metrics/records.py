"""Per-request records and whole-run results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["CsRecord", "RunResult"]


@dataclass
class CsRecord:
    """One critical-section execution by one node."""

    node_id: int
    request_time: float
    grant_time: Optional[float] = None
    release_time: Optional[float] = None

    @property
    def completed(self) -> bool:
        return self.release_time is not None

    @property
    def waiting_time(self) -> Optional[float]:
        """Request issue -> CS entry."""
        if self.grant_time is None:
            return None
        return self.grant_time - self.request_time

    @property
    def response_time(self) -> Optional[float]:
        """Request issue -> CS exit (the paper's RT definition)."""
        if self.release_time is None:
            return None
        return self.release_time - self.request_time

    @property
    def cs_duration(self) -> Optional[float]:
        if self.grant_time is None or self.release_time is None:
            return None
        return self.release_time - self.grant_time


@dataclass
class RunResult:
    """Everything measured in one scenario run."""

    algorithm: str
    n_nodes: int
    seed: int
    horizon: float
    records: List[CsRecord] = field(default_factory=list)
    messages_total: int = 0
    messages_by_kind: Dict[str, int] = field(default_factory=dict)
    weighted_units: int = 0
    sync_delays: List[float] = field(default_factory=list)
    #: protocol-specific counters (e.g. RCV parked-RM count)
    extra: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def completed_count(self) -> int:
        return sum(1 for r in self.records if r.completed)

    @property
    def issued_count(self) -> int:
        return len(self.records)

    @property
    def nme(self) -> float:
        """Messages per completed CS execution — the paper's NME."""
        done = self.completed_count
        if done == 0:
            return float("nan")
        return self.messages_total / done

    @property
    def mean_response_time(self) -> float:
        times = [r.response_time for r in self.records if r.completed]
        if not times:
            return float("nan")
        return sum(times) / len(times)

    @property
    def mean_waiting_time(self) -> float:
        times = [
            r.waiting_time for r in self.records if r.waiting_time is not None
        ]
        if not times:
            return float("nan")
        return sum(times) / len(times)

    @property
    def mean_sync_delay(self) -> float:
        if not self.sync_delays:
            return float("nan")
        return sum(self.sync_delays) / len(self.sync_delays)

    def all_completed(self) -> bool:
        """Liveness check: every issued request ran to completion."""
        return self.issued_count > 0 and all(r.completed for r in self.records)

    def summary_row(self) -> Dict[str, float]:
        """Flat dict used by the table renderers."""
        return {
            "algorithm": self.algorithm,
            "n": self.n_nodes,
            "requests": self.issued_count,
            "completed": self.completed_count,
            "nme": self.nme,
            "rt": self.mean_response_time,
            "wait": self.mean_waiting_time,
            "sync": self.mean_sync_delay,
        }
