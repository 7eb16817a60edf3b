"""The three RCV message types (paper §3, Figure 3).

* :class:`RequestMessage` (RM) — roams the network on behalf of its
  *home* node; carries the home's request tuple, the list of not yet
  visited nodes (``UL``), and a snapshot of the sender's system
  information (``MONL`` + ``MSIT`` + the completion watermark).
* :class:`EnterMessage` (EM) — grants the CS to its destination;
  carries a snapshot (no UL/Host).
* :class:`InformMessage` (IM) — tells a predecessor who enters the CS
  after it (field ``Next``); carries a snapshot.

Snapshots are taken at send time
(:meth:`~repro.core.state.SystemInfo.snapshot`) and are *frozen*: the
copy-on-write row sharing guarantees an in-flight message is immune
to sender- and receiver-side mutation — the same isolation the
historical deep copy provided, without the per-message table copy
(docs/protocol.md, "Performance model").

``size_units`` reflects the O(N) payload of snapshot-carrying
messages (1 + number of carried tuples), enabling the
bandwidth-weighted ablation; the default NME metric counts messages,
matching the paper.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Tuple

from repro.core.state import SystemInfo
from repro.core.tuples import ReqTuple
from repro.net.message import Message

__all__ = [
    "RequestMessage",
    "EnterMessage",
    "InformMessage",
    "SyncRequest",
    "SyncReply",
]

_get_cols = attrgetter("cols")


class _SnapshotMessage(Message):
    """Common carrier of an SI snapshot."""

    __slots__ = ("si",)
    si: SystemInfo

    def __init__(self, si: SystemInfo) -> None:
        self.si = si

    def size_units(self) -> int:
        """O(N) payload of a snapshot-carrying message: one unit of
        fixed header plus one per carried tuple (NONL + all MNLs).
        Reads the columnar maps' sizes through a C-level
        attrgetter/len chain — no tuple materialisation."""
        si = self.si
        carried = len(si.nonl) + sum(map(len, map(_get_cols, si.rows)))
        return 1 + carried


class RequestMessage(_SnapshotMessage):
    """RM — the roaming request (paper Fig. 3).

    ``home`` is the requesting node (the paper's *Host*), ``tup`` its
    request tuple, ``unvisited`` the ids the message may still be
    forwarded to, and ``hops`` the number of forwards so far (metrics
    only).
    """

    kind = "RM"

    __slots__ = ("home", "tup", "unvisited", "hops")
    home: int
    tup: ReqTuple
    unvisited: Tuple[int, ...]
    hops: int

    def __init__(
        self,
        home: int,
        tup: ReqTuple,
        unvisited: Iterable[int],
        si: SystemInfo,
        hops: int = 0,
    ) -> None:
        self.si = si
        self.home = home
        self.tup = tup
        # Stored as a sorted tuple: the stable population the random
        # forwarding policy draws from (previously re-sorted from a
        # frozenset on every hop).  A tuple argument is trusted to be
        # sorted already — the hot path passes slices of a sorted
        # tuple; anything else is sorted here.
        if type(unvisited) is tuple:
            self.unvisited = unvisited
        else:
            self.unvisited = tuple(sorted(unvisited))
        self.hops = hops

    def describe(self) -> str:
        return (
            f"{super().describe()}(home={self.home}, tup={self.tup.describe()}, "
            f"hops={self.hops}, |UL|={len(self.unvisited)})"
        )


class EnterMessage(_SnapshotMessage):
    """EM — wakes the next node to enter the CS."""

    kind = "EM"

    __slots__ = ("target_tup",)
    target_tup: ReqTuple

    def __init__(self, target_tup: ReqTuple, si: SystemInfo) -> None:
        self.si = si
        self.target_tup = target_tup

    def describe(self) -> str:
        return f"{super().describe()}(target={self.target_tup.describe()})"


class InformMessage(_SnapshotMessage):
    """IM — tells its destination who its successor is.

    ``pred_tup`` is the destination's request (the tuple immediately
    preceding the successor in the NONL); ``next_node``/``next_tup``
    identify the successor that must receive an EM when the
    destination leaves the CS.
    """

    kind = "IM"

    __slots__ = ("pred_tup", "next_node", "next_tup")
    pred_tup: ReqTuple
    next_node: int
    next_tup: ReqTuple

    def __init__(
        self,
        pred_tup: ReqTuple,
        next_tup: ReqTuple,
        si: SystemInfo,
    ) -> None:
        self.si = si
        self.pred_tup = pred_tup
        self.next_tup = next_tup
        self.next_node = next_tup.node

    def describe(self) -> str:
        return (
            f"{super().describe()}(pred={self.pred_tup.describe()}, "
            f"next={self.next_tup.describe()})"
        )


class SyncRequest(_SnapshotMessage):
    """SYNC_REQ — a recovered node asks a peer for its view.

    Sent by :meth:`~repro.core.node.RCVNode.rejoin` after a crash
    recovery: carries the rejoiner's (stale) SI snapshot so the peer
    can Exchange-merge anything the rejoiner still holds fresher, and
    requests the peer's snapshot back.  Pure extension of the paper's
    Exchange machinery — no new merge semantics (docs/faults.md,
    "Recovery").
    """

    kind = "SYNC_REQ"

    __slots__ = ()


class SyncReply(_SnapshotMessage):
    """SYNC_REP — a peer's snapshot answering a :class:`SyncRequest`."""

    kind = "SYNC_REP"

    __slots__ = ()
