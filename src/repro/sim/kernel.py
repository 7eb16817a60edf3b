"""Event-heap simulation kernel.

The kernel is intentionally small: a priority queue of ``(time, seq)``
keys mapped to callbacks.  Determinism rules:

* events at equal times fire in ``seq`` order, where ``seq`` is a
  global insertion counter — so runs are bit-for-bit reproducible;
* cancelled events stay in the heap but are skipped (lazy deletion),
  which keeps :meth:`Simulator.schedule` and :meth:`Handle.cancel`
  O(log n) / O(1); the heap compacts itself automatically once more
  than half of it is dead weight (see :meth:`Simulator._compact`).

Two ways in share one heap and one ``seq`` counter (so their events
interleave deterministically), and the rule between them is that a
:class:`Handle` exists only for an event someone can cancel:

* :meth:`Simulator.schedule` — returns a cancellable :class:`Handle`;
  the heap entry is ``(time, seq, Handle)``;
* :meth:`Simulator.schedule_fast` — fire-once: the heap entry is a
  plain ``(time, seq, callback)`` tuple and nothing is allocated
  besides it.  The workload drivers, the fault schedule and the lemma
  monitor use it; anything that may need ``cancel()`` must use
  :meth:`Simulator.schedule`.  The network pushes its deliveries in
  this form itself (:mod:`repro.net.network`): no kernel call.

:meth:`Simulator.watch` is not an event: it has the run ask a callback
whether to go on once time passes an instant, and adds nothing to the
heap, so a watched run fires the events an unwatched one fires.

The kernel knows nothing about networks or algorithms; those live in
:mod:`repro.net` and :mod:`repro.mutex`.  Observation happens above it
too: :mod:`repro.trace` records through network taps and node hooks.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Callable, Optional

__all__ = [
    "Handle",
    "Simulator",
    "SimulationError",
    "EventBudgetExceeded",
    "delay_error",
]

_heappush = heapq.heappush
_heappop = heapq.heappop
_NEVER = float("inf")


def delay_error(delay) -> ValueError:
    """The refusal of a delay outside ``0 <= delay < inf``."""
    return ValueError(f"delay must be a finite number >= 0 (got {delay!r})")


class SimulationError(RuntimeError):
    """Base class for kernel-level failures."""


class EventBudgetExceeded(SimulationError):
    """Raised when a run exceeds its configured event budget.

    This is the kernel's livelock guard: scenarios that should
    terminate (all requests served) but keep generating events — e.g.
    a broken algorithm endlessly forwarding a request — surface as
    this exception instead of hanging the test suite.
    """


class Handle:
    """Cancellable reference to a scheduled event."""

    __slots__ = ("time", "callback", "_cancelled", "_sim")

    def __init__(
        self,
        time: float,
        callback: Callable[[], None],
        sim: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        self.callback: Optional[Callable[[], None]] = callback
        self._cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        if self.callback is not None:
            # Still pending in the heap: break the reference cycle and
            # let the owning simulator count it toward compaction.
            self.callback = None
            sim = self._sim
            if sim is not None:
                sim._note_cancelled()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def active(self) -> bool:
        """True while the event is scheduled and not cancelled."""
        return not self._cancelled and self.callback is not None


class Simulator:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    max_events:
        Hard cap on the number of events executed by :meth:`run`;
        exceeding it raises :class:`EventBudgetExceeded`.
    """

    __slots__ = (
        "_now",
        "_heap",
        "_count",
        "_events_run",
        "max_events",
        "_running",
        "_cancelled_pending",
        "_watch_at",
        "_watch",
    )

    #: auto-compaction floor: below this many cancelled entries the
    #: heap is never rebuilt (rebuilds would cost more than the skips)
    COMPACT_MIN_CANCELLED = 64

    def __init__(self, max_events: int = 10_000_000) -> None:
        self._now = 0.0
        self._heap: list[tuple] = []
        self._count = count(1)
        self._events_run = 0
        self.max_events = int(max_events)
        self._running = False
        self._cancelled_pending = 0
        self._watch_at = _NEVER
        self._watch: Optional[Callable[[], Optional[float]]] = None

    # ------------------------------------------------------------------
    # time & scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_run(self) -> int:
        """Number of events executed so far."""
        return self._events_run

    @property
    def pending(self) -> int:
        """Number of scheduled (possibly cancelled) events remaining."""
        return len(self._heap)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Handle:
        """Schedule ``callback`` to run ``delay`` time units from now.

        Events that share a firing time run in insertion order.
        A delay must be a finite number >= 0: simulated time never
        flows backwards, and an event at t=nan or t=inf would fire out
        of order and leave the run's horizon undefined.
        """
        if not 0 <= delay < _NEVER:
            raise delay_error(delay)
        handle = Handle(self._now + delay, callback, self)
        _heappush(self._heap, (handle.time, next(self._count), handle))
        return handle

    def schedule_fast(self, delay: float, callback: Callable[[], None]) -> None:
        """Fast path: schedule a fire-once event with no handle.

        The event cannot be cancelled; in exchange the heap entry is
        a bare tuple.  Shares the ``seq`` counter with
        :meth:`schedule`, so mixing both paths keeps the global event
        order deterministic.  Delays are checked as in :meth:`schedule`.
        """
        if not 0 <= delay < _NEVER:
            raise delay_error(delay)
        _heappush(self._heap, (self._now + delay, next(self._count), callback))

    def watch(
        self, at: float, callback: Optional[Callable[[], Optional[float]]]
    ) -> None:
        """Have :meth:`run` ask ``callback()`` once time passes ``at``.

        Time passes ``at`` when every event due by it has fired and a
        live event lies beyond it: the clock is set to ``at`` and the
        callback answers the next instant to watch, or None to end
        the run there.  A run that drains first never asks it, and
        the watch adds no event, so it moves no ``seq``, no count and
        no horizon.  ``watch(inf, None)`` stops watching.
        """
        self._watch_at = at
        self._watch = callback

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event.  Returns False when the heap is empty."""
        return self._execute(_NEVER, True)

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the heap drains, ``until`` is reached or
        the watch (:meth:`watch`) ends the run.

        Returns the final simulated time.  When ``until`` is given,
        time is advanced to exactly ``until`` even if the last event
        fired earlier, matching the usual DES convention — unless the
        watch ended the run, which leaves the clock at its instant.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        try:
            if until is None:
                self._execute(_NEVER, False)
            elif not self._execute(until, False) and until > self._now:
                self._now = until
        finally:
            self._running = False
        return self._now

    def _execute(self, until: float, single: bool) -> bool:
        """The kernel's one event loop: fire the events due by ``until``.

        With ``single`` it returns True after the first one, and it
        returns True when the watch ends the run; it returns False
        once nothing (more) is due.  The watch stretches the loop's
        one horizon compare, never adds one: ``limit`` is the nearer
        of ``until`` and the watch, and only an event beyond it asks
        which one it was.
        """
        # Locals are bound once so the per-event cost is a heappop, a
        # horizon compare, a class check, the event accounting, and
        # the callback itself.  ``self._events_run`` is re-read and
        # written back every iteration (not cached in a local across
        # events) so callbacks observe an accurate count and nested
        # ``step()`` calls stay within the budget.  ``self._heap`` is
        # only ever mutated in place (push / pop / compact), so the
        # local alias stays valid even when a callback triggers
        # compaction.
        heap = self._heap
        pop = _heappop
        max_events = self.max_events
        limit = until if single or until <= self._watch_at else self._watch_at
        while True:
            try:
                entry = pop(heap)
            except IndexError:
                return False
            if entry[0] > limit:
                if limit == until:
                    # Not due yet: push the identical tuple back (same
                    # seq, so ordering is untouched).
                    _heappush(heap, entry)
                    return False
                cb = entry[2]
                if cb.__class__ is Handle and cb.callback is None:
                    # A cancelled event is no sign of time passing.
                    self._cancelled_pending -= 1
                    continue
                _heappush(heap, entry)
                self._now = self._watch_at
                at = self._watch()
                if at is None:
                    self.watch(_NEVER, None)
                    return True
                self._watch_at = at
                limit = until if until <= at else at
                continue
            cb = entry[2]
            if cb.__class__ is Handle:
                handle = cb
                cb = handle.callback
                if cb is None:
                    # Lazily deleted: popped (and accounted) exactly
                    # once, here, without touching the clock.
                    self._cancelled_pending -= 1
                    continue
                handle.callback = None
            self._now = entry[0]
            self._events_run = events = self._events_run + 1
            if events > max_events:
                raise EventBudgetExceeded(
                    f"exceeded {max_events} events at t={self._now}"
                )
            cb()
            if single:
                return True

    # ------------------------------------------------------------------
    # heap maintenance
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every pending event; none of them will fire.

        A still-pending :class:`Handle` drops its callback (and so
        reads inactive), which breaks the cycle through whoever holds
        it — e.g. a node's recovery timer calling back into the node.
        """
        for entry in self._heap:
            if entry[2].__class__ is Handle:
                entry[2].callback = None
        self._heap.clear()
        self._cancelled_pending = 0

    def _note_cancelled(self) -> None:
        """Called by :meth:`Handle.cancel` for a still-pending event."""
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= self.COMPACT_MIN_CANCELLED
            and self._cancelled_pending * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> int:
        """Drop cancelled entries and re-heapify, in place.

        In-place (``heap[:] = ...``) so aliases held by a running
        event loop remain valid.  Returns the number removed.
        """
        heap = self._heap
        before = len(heap)
        live = [
            e
            for e in heap
            if e[2].__class__ is not Handle or e[2].callback is not None
        ]
        heap[:] = live
        heapq.heapify(heap)
        self._cancelled_pending = 0
        return before - len(heap)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Simulator(now={self._now}, pending={len(self._heap)}, "
            f"run={self._events_run})"
        )
