"""Base message type and envelope bookkeeping.

Algorithm packages subclass :class:`Message`; the network only relies
on the ``kind`` tag (for accounting) and ``size_units`` (for optional
bandwidth-weighted stats).  Messages must be treated as immutable
once sent — the simulator passes references, so senders clone any
mutable payload first (the RCV implementation does this explicitly in
its snapshot helpers).
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache
from typing import ClassVar, Dict

__all__ = ["Message", "message_kinds", "payload_fields"]

_msg_counter = itertools.count(1)


@lru_cache(maxsize=None)
def payload_fields(message_type) -> tuple:
    """Sorted names of a message type's payload slots.

    Walks ``__slots__`` across the whole MRO so subclass fields and
    inherited ones (e.g. the RCV snapshot mixin's ``si``) are both
    included, and drops ``msg_id`` — the process-global construction
    counter is envelope bookkeeping, not payload.  Used by tooling
    that needs the *semantic* content of a message (the ``repro.verify``
    fingerprints); a field added to any message subclass shows up here
    automatically.
    """
    names = set()
    for klass in message_type.__mro__:
        names.update(getattr(klass, "__slots__", ()))
    names.discard("msg_id")
    return tuple(sorted(names))


def message_kinds(node_type) -> Dict[str, type]:
    """``kind -> class`` for every message a node class can exchange:
    the :class:`Message` subclasses the modules along its MRO define
    or import (an algorithm's messages live beside its node).  Two
    classes of one kind in one algorithm are refused — a receiver
    could not tell them apart."""
    kinds: Dict[str, type] = {}
    for klass in node_type.__mro__:
        for value in vars(sys.modules[klass.__module__]).values():
            if (
                isinstance(value, type)
                and issubclass(value, Message)
                and value.kind != Message.kind
                and kinds.setdefault(value.kind, value) is not value
            ):
                raise ValueError(
                    f"{node_type.__name__} has two {value.kind!r} messages: "
                    f"{kinds[value.kind].__name__} and {value.__name__}"
                )
    return kinds


class Message:
    """Root of all protocol messages.

    Attributes
    ----------
    kind:
        Class-level tag used for per-type accounting (e.g. ``"RM"``).
    msg_id:
        Unique id assigned at construction; used by traces and tests
        to follow an individual message through the system.
    """

    kind: ClassVar[str] = "MSG"

    __slots__ = ("msg_id",)

    def __init__(self) -> None:
        self.msg_id = next(_msg_counter)

    def size_units(self) -> int:
        """Abstract size of the message for weighted accounting.

        The default of 1 counts messages, matching the paper's NME
        metric.  Subclasses carrying O(N) state (the RCV RM/EM) may
        override to enable the bandwidth ablation.
        """
        return 1

    def describe(self) -> str:
        """One-line human-readable summary used by the trace recorder."""
        return f"{self.kind}#{self.msg_id}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.describe()
