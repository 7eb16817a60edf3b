"""Minimal actor abstraction for simulated processes.

An :class:`Actor` owns an integer id and receives messages via its
one upcall, :meth:`Actor.on_message`.  Network nodes
(:mod:`repro.mutex`) are actors.  The base class deliberately has no
mailbox of its own: the network layer invokes :meth:`on_message` at
the simulated delivery instant, mirroring the paper's Message
Processing Model (MPM) which consumes one message per activation.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Actor"]


class Actor:
    """Base class for message-driven simulated processes."""

    def __init__(self, actor_id: int) -> None:
        self.actor_id = int(actor_id)

    def on_message(self, src: int, message: Any) -> None:
        """Handle a message from ``src``.  Subclasses override."""
        raise NotImplementedError(
            f"{type(self).__name__} does not handle messages"
        )

    def start(self) -> None:
        """Hook invoked once when the scenario begins.  Optional."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(id={self.actor_id})"
