"""Binds hooks + network stats into per-request records.

Hot-path layout: the collector appends to typed column lists (one
append per field) instead of allocating a :class:`CsRecord` object
per request during the run; the record objects — and the
:class:`RunResult` — are materialised once, at :meth:`finalize`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.metrics.records import CsRecord, RunResult

__all__ = ["MetricsCollector"]


class MetricsCollector:
    """Builds :class:`CsRecord` entries from driver/hook callbacks.

    The workload driver calls :meth:`on_requested`; grant/release
    arrive via the algorithm hooks.  Because each node has at most one
    outstanding request, the open record per node is unique.
    """

    __slots__ = (
        "_clock",
        "_node_ids",
        "_request_times",
        "_grant_times",
        "_release_times",
        "_open",
    )

    def __init__(self, clock) -> None:
        self._clock = clock
        # Parallel columns, one entry per issued request, in issue order.
        self._node_ids: List[int] = []
        self._request_times: List[float] = []
        self._grant_times: List[Optional[float]] = []
        self._release_times: List[Optional[float]] = []
        # node_id -> column index of its open (uncompleted) request
        self._open: Dict[int, int] = {}

    def attach(self, hooks) -> None:
        hooks.subscribe_granted(self.on_granted)
        hooks.subscribe_released(self.on_released)

    # ------------------------------------------------------------------
    def on_requested(self, node_id: int) -> None:
        if node_id in self._open:
            raise RuntimeError(
                f"node {node_id} issued a request while one is open"
            )
        self._open[node_id] = len(self._node_ids)
        self._node_ids.append(node_id)
        self._request_times.append(self._clock())
        self._grant_times.append(None)
        self._release_times.append(None)

    def on_granted(self, node_id: int) -> None:
        idx = self._open.get(node_id)
        if idx is None:
            raise RuntimeError(f"grant for node {node_id} without a request")
        self._grant_times[idx] = self._clock()

    def on_released(self, node_id: int) -> None:
        idx = self._open.pop(node_id, None)
        if idx is None:
            raise RuntimeError(f"release for node {node_id} without a grant")
        self._release_times[idx] = self._clock()

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Requests issued but not yet completed."""
        return len(self._open)

    def stall_mark(self) -> Optional[Tuple[int, int]]:
        """``(issued, open)`` while requests wait and none holds the
        CS, else None.  An issue moves the first, a release the
        second, so two equal marks mean nothing was issued, granted
        or released between them (a grant not yet released would
        hold the CS at the second)."""
        grants = self._grant_times
        if not self._open or any(grants[i] is not None for i in self._open.values()):
            return None
        return len(self._node_ids), len(self._open)

    def has_waiters(self) -> bool:
        """True if any request is granted-pending (used for sync delay)."""
        grants = self._grant_times
        return any(grants[i] is None for i in self._open.values())

    @property
    def records(self) -> List[CsRecord]:
        """Materialised per-request records (built on demand)."""
        return [
            CsRecord(
                node_id=node_id,
                request_time=req,
                grant_time=grant,
                release_time=release,
            )
            for node_id, req, grant, release in zip(
                self._node_ids,
                self._request_times,
                self._grant_times,
                self._release_times,
            )
        ]

    def finalize(
        self,
        *,
        algorithm: str,
        n_nodes: int,
        seed: int,
        horizon: float,
        network_stats,
        sync_delays: Optional[List[float]] = None,
        extra: Optional[Dict[str, float]] = None,
    ) -> RunResult:
        return RunResult(
            algorithm=algorithm,
            n_nodes=n_nodes,
            seed=seed,
            horizon=horizon,
            records=self.records,
            messages_total=network_stats.sent_total,
            messages_by_kind=dict(network_stats.by_kind),
            weighted_units=network_stats.weighted_units,
            sync_delays=list(sync_delays or []),
            extra=dict(extra or {}),
        )
