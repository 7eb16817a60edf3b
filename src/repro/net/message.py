"""Base message type and envelope bookkeeping.

Algorithm packages subclass :class:`Message`; the network only relies
on the ``kind`` tag (for accounting) and ``units`` (for optional
bandwidth-weighted stats).  Messages must be treated as immutable
once sent — the simulator passes references, so senders clone any
mutable payload first (the RCV implementation does this explicitly in
its snapshot helpers).
"""

from __future__ import annotations

import sys
import typing
from functools import lru_cache
from typing import ClassVar, Dict, Optional

__all__ = ["Message", "message_kinds", "payload_fields", "payload_types"]


@lru_cache(maxsize=None)
def payload_fields(message_type) -> tuple:
    """Sorted names of a message type's payload slots.

    Walks ``__slots__`` across the whole MRO so subclass fields and
    inherited ones (e.g. the RCV snapshot mixin's ``si``) are both
    included, and drops ``msg_id`` — the send number is envelope
    bookkeeping, not payload.  Used by tooling that needs the
    *semantic* content of a message (the ``repro.verify``
    fingerprints); a field added to any message subclass shows up here
    automatically.
    """
    names = set()
    for klass in message_type.__mro__:
        names.update(getattr(klass, "__slots__", ()))
    names.discard("msg_id")
    return tuple(sorted(names))


@lru_cache(maxsize=None)
def payload_types(message_type) -> Dict[str, object]:
    """``name -> type`` for a message type's payload slots: the
    annotations each class along the MRO gives its own slots (every
    :class:`Message` subclass annotates exactly those, checked when
    the class is made).  The TCP runtime refuses a frame whose field
    does not have its type (:func:`repro.canon.loads`)."""
    hints = typing.get_type_hints(message_type)
    return {name: hints[name] for name in payload_fields(message_type)}


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
    units:
        Every message's weight, or None (a class defining its own
        :meth:`size_units`) when that computes it per message.
    msg_id:
        The message's send number in its run, set by whatever sends
        it; traces and tests follow a message by it.

    A subclass declares its payload in ``__slots__`` and annotates
    each of those slots with its type (:func:`payload_types`).
    """

    kind: ClassVar[str] = "MSG"
    units: ClassVar[Optional[int]] = 1

    __slots__ = ("msg_id",)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "size_units" in vars(cls):
            cls.units = None
        own = set(vars(cls).get("__annotations__", ())) - {"kind", "units"}
        slots = set(vars(cls).get("__slots__", ()))
        if own != slots:
            raise TypeError(
                f"{cls.__name__} annotates {sorted(own)} but its slots are "
                f"{sorted(slots)}: give every payload slot its type"
            )

    def size_units(self) -> int:
        """Abstract size of the message for weighted accounting.

        The default of 1 counts messages, matching the paper's NME
        metric.  Subclasses carrying O(N) state (the RCV RM/EM, the
        token kinds) override it to enable the bandwidth ablation.
        """
        return 1

    def describe(self) -> str:
        """One-line human-readable summary used by the trace recorder
        (``-`` for the id of a message not sent yet)."""
        return f"{self.kind}#{getattr(self, 'msg_id', '-')}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.describe()
