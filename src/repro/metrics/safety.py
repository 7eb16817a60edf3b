"""Runtime verification of the paper's correctness theorems.

:class:`SafetyMonitor` subscribes to the grant/release hooks and
raises :class:`MutualExclusionViolation` the *instant* a second node
enters the CS while another holds it — failing the run at the exact
simulated time of the violation, with both node ids, which makes
protocol bugs directly debuggable from the trace.

It also accumulates the synchronization-delay samples: the gap
between a release and the next grant *while demand was pending*
(grants that follow an idle period are not synchronization delays —
nobody was waiting — and are excluded, matching the paper's
definition "the time interval between two successive executions of
the CS" under load).
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["MutualExclusionViolation", "SafetyMonitor"]


class MutualExclusionViolation(AssertionError):
    """Two nodes overlapped in the critical section."""


class SafetyMonitor:
    """Watches grant/release upcalls and enforces mutual exclusion."""

    def __init__(self, clock, *, waiting_probe=None) -> None:
        """``clock`` is a zero-arg callable returning current time.

        ``waiting_probe``, if given, is a zero-arg callable returning
        True when at least one request is pending; used to classify
        grant gaps as genuine synchronization delays.
        """
        self._clock = clock
        self._waiting_probe = waiting_probe
        self.holder: Optional[int] = None
        self.entries = 0
        self.exits = 0
        self.last_release_time: Optional[float] = None
        self._release_had_waiters = False
        self.sync_delays: List[float] = []
        self.grant_log: List[tuple[float, int]] = []

    # ------------------------------------------------------------------
    def attach(self, hooks) -> None:
        hooks.subscribe_granted(self.on_granted)
        hooks.subscribe_released(self.on_released)

    # ------------------------------------------------------------------
    def on_granted(self, node_id: int) -> None:
        now = self._clock()
        if self.holder is not None:
            raise MutualExclusionViolation(
                f"node {node_id} entered the CS at t={now} while node "
                f"{self.holder} was still inside"
            )
        self.holder = node_id
        self.entries += 1
        self.grant_log.append((now, node_id))
        if self.last_release_time is not None and self._release_had_waiters:
            self.sync_delays.append(now - self.last_release_time)

    def on_released(self, node_id: int) -> None:
        now = self._clock()
        if self.holder != node_id:
            raise MutualExclusionViolation(
                f"node {node_id} released the CS at t={now} but the "
                f"holder was {self.holder}"
            )
        self.holder = None
        self.exits += 1
        self.last_release_time = now
        self._release_had_waiters = (
            self._waiting_probe() if self._waiting_probe is not None else True
        )
