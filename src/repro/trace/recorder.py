"""Event-log recorder."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import List, Optional

__all__ = ["TraceEvent", "TraceRecorder"]


@dataclass(frozen=True)
class TraceEvent:
    """One observed event."""

    time: float
    category: str  # "send" | "grant" | "release"
    src: Optional[int] = None
    dst: Optional[int] = None
    kind: Optional[str] = None
    detail: str = ""

    def render(self) -> str:
        if self.category == "send":
            return (
                f"t={self.time:10.2f}  {self.src:>3} -> {self.dst:<3} "
                f"{self.detail}"
            )
        return f"t={self.time:10.2f}  node {self.src}: {self.category}"


class TraceRecorder:
    """Collects :class:`TraceEvent` entries from one engine's run.

    Attach between construction and the run, before anything is sent::

        engine = Engine(scenario)
        recorder = TraceRecorder(engine)
        result = engine.run()
    """

    def __init__(self, engine) -> None:
        self._sim = engine.sim
        self.events: List[TraceEvent] = []
        engine.network.add_tap(self._on_send)
        engine.hooks.subscribe_granted(self._on_granted)
        engine.hooks.subscribe_released(self._on_released)

    def _on_send(self, src: int, dst: int, message, deliver_at: float) -> None:
        self.events.append(
            TraceEvent(
                time=self._sim.now,
                category="send",
                src=src,
                dst=dst,
                kind=message.kind,
                detail=f"{message.describe()} (arrives t={deliver_at:.2f})",
            )
        )

    def _on_granted(self, nid: int) -> None:
        self.events.append(TraceEvent(self._sim.now, "grant", src=nid))

    def _on_released(self, nid: int) -> None:
        self.events.append(TraceEvent(self._sim.now, "release", src=nid))

    # ------------------------------------------------------------------
    def filter(
        self,
        *,
        category: Optional[str] = None,
        kind: Optional[str] = None,
        node: Optional[int] = None,
    ) -> List[TraceEvent]:
        out = self.events
        if category is not None:
            out = [e for e in out if e.category == category]
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if node is not None:
            out = [e for e in out if e.src == node or e.dst == node]
        return list(out)

    def render(self, limit: Optional[int] = None) -> str:
        events = self.events if limit is None else self.events[:limit]
        return "\n".join(e.render() for e in events)

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(asdict(e)) for e in self.events)

    def __len__(self) -> int:
        return len(self.events)
