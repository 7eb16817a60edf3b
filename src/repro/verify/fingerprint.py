"""Canonical state fingerprints and state copies — one walker for both.

Two worlds with equal fingerprints are merged during exploration, so
a value *missing* from a fingerprint collapses distinct states and
makes the checker unsound; a value a clone *shares* with its original
lets one world's transition leak into another.  How a value is
encoded and how it is copied are therefore two columns of one table,
:data:`VALUE_TYPES`, a row per type the protocol state may hold: the
cloner and the fingerprint cannot disagree about a type, and a type
with no row is a :class:`FingerprintError`, never a guess.

What is walked is decided by exclusion only.  A node's canon is
**every attribute that** :data:`NODE_EXCLUDED` **does not name**
(:class:`repro.verify.models.AlgorithmModel`); a message's is every
slot but ``msg_id`` (:func:`repro.net.message.payload_fields`).  An
attribute nobody classified is fingerprinted and cloned: over-inclusion
splits equal states and shows as a moved pin in ``tests/test_verify.py``,
it never hides one.  Each exclusion is a soundness claim and carries
its justification; a clone gets an excluded attribute by reference,
which is what the justifications license (construction constants,
infrastructure handles, instrumentation nobody reads).
:func:`node_canon` holds the tables to the live node at every world
construction: an entry naming an attribute the node lacks, or
justifying nothing, is refused.

``SystemInfo`` alone has a hand-written encoder (:func:`fingerprint_si`;
its copy is the protocol's own copy-on-write ``snapshot()``), so it
keeps a canon table beside its exclusions and
:func:`assert_canon_complete` checks that the two partition its slots.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.state import SystemInfo
from repro.net.message import Message, payload_fields
from repro.verify.errors import VerifyError

__all__ = [
    "ENCODER_OVERRIDES",
    "FingerprintError",
    "NODE_EXCLUDED",
    "SYSTEMINFO_CANON",
    "SYSTEMINFO_EXCLUDED",
    "VALUE_TYPES",
    "assert_canon_complete",
    "copy_value",
    "encode_value",
    "fingerprint_message",
    "fingerprint_si",
    "node_canon",
]

_HERE = "src/repro/verify/fingerprint.py"


class FingerprintError(VerifyError):
    """A value reached the walker that it can neither encode nor copy,
    or an exclusion table drifted from the class it describes.

    Raised instead of guessing: the state model changed and this
    module must be updated deliberately.
    """


# ----------------------------------------------------------------------
# SystemInfo
# ----------------------------------------------------------------------
def fingerprint_si(si: SystemInfo) -> Tuple:
    """The semantic content of an SI: NONL, MNLs (in arrival order),
    row freshness counters, and the completion watermark."""
    return (
        tuple(si.nonl),
        tuple(tuple(row.cols.items()) for row in si.rows),
        tuple(si.row_ts),
        tuple(si.done),
    )


#: SystemInfo.__slots__ members that carry *semantic* replicated state.
SYSTEMINFO_CANON = {
    "nonl": "the committed order (Lemma 7's subject)",
    "rows": "the NSIT MNLs — votes, in arrival order",
    "row_ts": "per-row freshness counters (drive Exchange adoption)",
    "done": "the completion watermark (outdated-tuple detection)",
}

#: SystemInfo.__slots__ members excluded from the fingerprint, with
#: the argument why each cannot distinguish reachable behaviors.
SYSTEMINFO_EXCLUDED = {
    "n": "construction constant, identical in every state of one run",
    "next_node": (
        "never written on the protocol path — the RCV successor lives "
        "in RCVNode.next_tup, which is canon"
    ),
    "gen": "dirty counter for cache invalidation; no semantic content",
    "_done_gen": "watermark-advance counter (prune amortization only)",
    "_clean_done_gen": (
        "prune bookkeeping; affects whether a scan is skipped, never "
        "its result"
    ),
    "_votes_cache": "cache keyed on gen; reconstructible from rows",
    "_pos_cache": "cache keyed on gen; reconstructible from nonl",
    "_max_ts": (
        "always equals max(row_ts): every timestamp write is noted "
        "(note_ts/next_ts/adoption) and row_ts entries are monotone, "
        "so row_ts already covers it"
    ),
    "_need_share": "copy-on-write epoch bookkeeping; no semantic content",
    "_fronts": "incremental-tally cache; reconstructible from rows",
    "_votes": "incremental-tally cache; reconstructible from rows",
    "_empty": "incremental-tally cache; reconstructible from rows",
    "_stale": "incremental-tally dirty set; no semantic content",
    "_fronts_ok": "incremental-tally validity flag; no semantic content",
    "cow_clones": "instrumentation counter",
    "snapshots_taken": "instrumentation counter",
    "prunes_run": "instrumentation counter",
    "prunes_skipped": "instrumentation counter",
    "fronts_rebuilt": "instrumentation counter",
    "fronts_reconciled": "instrumentation counter",
}


# ----------------------------------------------------------------------
# node exclusions — the only per-class knowledge the checker has
# ----------------------------------------------------------------------
#: class (by qualified name, so that importing this module imports no
#: algorithm) → what that class's ``__init__`` sets that is not state.
#: A node's exclusions are the tables of every class along its MRO, so
#: subclasses (Maekawa, the planted mutants) inherit them; a class not
#: named here excludes nothing of its own.
NODE_EXCLUDED: Dict[str, Dict[str, str]] = {
    # Every node inherits these from Actor/MutexNode.  Node identity
    # is positional — fingerprints are collected in node-id order — so
    # the id-like constants carry no extra information.
    "repro.mutex.base.MutexNode": {
        "actor_id": "fixed at construction; equals node_id (positional)",
        "node_id": "fixed at construction; the fingerprint is positional",
        "n_nodes": "construction constant",
        "env": "infrastructure reference (the run's one ModelEnv)",
        "hooks": "infrastructure reference; grant/release effects are "
        "fully captured by NodeState",
        "request_time": "metrics-only timestamp; logical time is frozen "
        "at 0 under the checker",
        "cs_count": "derivable: requests issued (the world's request "
        "ledger) minus the one still outstanding",
    },
    "repro.core.node.RCVNode": {
        "config": "frozen dataclass, identical in every state",
        "policy": "stateless strategy object chosen by config",
        "exchange_stats": "instrumentation counters",
        "_recovery_timer": "always None under the checker: ModelEnv "
        "refuses timers and the model forces rm_timeout=None",
        "_fwd_rng": "cached env.rng handle; forwarding nondeterminism is "
        "enumerated explicitly through the ChoiceSource",
        "_excluded": "frozen derivative of config.exclude_nodes",
        "counters": "instrumentation counters",
    },
    "repro.baselines.quorum_base.QuorumMutexNode": {
        "quorum": "construction constant (the node's quorum set)",
    },
    "repro.baselines.lamport.LamportNode": {
        "fifo_fallbacks": "instrumentation counter; never read",
    },
    "repro.baselines.raymond.RaymondNode": {
        "_neighbors": "construction constant (the node's tree edges)",
    },
}


def _qualified(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _slot_names(cls: type) -> set:
    return {
        name
        for klass in cls.__mro__
        for name in getattr(klass, "__slots__", ())
    }


def _attr_names(obj) -> set:
    # slots along the MRO plus the instance dict: a subclass of a
    # slotted class that declares no __slots__ of its own has both
    return set(getattr(obj, "__dict__", ())) | _slot_names(type(obj))


def _refuse(obj, names: set, problem: str) -> None:
    if names:
        raise FingerprintError(
            f"{type(obj).__name__} attributes {sorted(names)} "
            f"{problem} ({_HERE})"
        )


def _checked_table(obj, attrs: set, name: str, table: dict) -> set:
    """The entries of ``table`` (``name`` tells the complaint which
    table to edit), refusing one that names an attribute ``obj`` lacks
    or says nothing about it."""
    _refuse(
        obj,
        set(table) - attrs,
        f"are stale entries of {name} — the instance has no such attribute",
    )
    _refuse(
        obj,
        {
            attr
            for attr, why in table.items()
            if not (isinstance(why, str) and why.strip())
        },
        f"have no justification in {name} — leaving state out of the "
        "fingerprint is a soundness claim and must say why it is safe",
    )
    return set(table)


def assert_canon_complete(si: SystemInfo) -> None:
    """``SYSTEMINFO_CANON`` and ``SYSTEMINFO_EXCLUDED`` partition the
    slots of ``si``, no entry is stale, every exclusion is justified."""
    attrs = _attr_names(si)
    canon = _checked_table(si, attrs, "SYSTEMINFO_CANON", SYSTEMINFO_CANON)
    excluded = _checked_table(
        si, attrs, "SYSTEMINFO_EXCLUDED", SYSTEMINFO_EXCLUDED
    )
    _refuse(
        si,
        canon & excluded,
        "are in both SYSTEMINFO_CANON and SYSTEMINFO_EXCLUDED — pick one",
    )
    _refuse(
        si,
        attrs - canon - excluded,
        "are in neither SYSTEMINFO_CANON nor SYSTEMINFO_EXCLUDED — two "
        "states differing only there would fingerprint equal and the "
        "checker would skip reachable states",
    )


def node_canon(node) -> List[Tuple[str, Callable]]:
    """``(attribute, encoder)`` for everything ``node`` carries that
    is state — every attribute but those the exclusion tables of the
    classes along its MRO name, in ``__dict__`` order.  The tables
    are checked against the live instance on the way, as is any
    ``SystemInfo`` the node carries: called at every world
    construction, so a table cannot drift unnoticed, and every
    failure is a :class:`FingerprintError` naming the attributes and
    the table to edit."""
    attrs = _attr_names(node)
    owners = [_qualified(klass) for klass in type(node).__mro__]
    excluded: set = set()
    for owner in owners:
        if owner in NODE_EXCLUDED:
            excluded |= _checked_table(
                node, attrs, f"NODE_EXCLUDED[{owner!r}]", NODE_EXCLUDED[owner]
            )
    for value in vars(node).values():
        if isinstance(value, SystemInfo):
            assert_canon_complete(value)
    overrides = {
        attr: encode
        for (owner, attr), encode in ENCODER_OVERRIDES.items()
        if owner in owners
    }
    return [
        (name, overrides.get(name, encode_value))
        for name in vars(node)
        if name not in excluded
    ]


# ----------------------------------------------------------------------
# the value table: how each type is copied, how it is encoded
# ----------------------------------------------------------------------
def _share_frozen(value):
    # A tuple or frozenset is shared, never rebuilt (a NamedTuple
    # would not survive ``type(value)(items)``), so everything in it
    # must be shareable too.
    for item in value:
        if copy_value(item) is not item:
            raise FingerprintError(
                f"{value!r} holds a mutable {type(item).__name__}: a "
                f"clone cannot share it — hold a list instead ({_HERE})"
            )
    return value


def _copy_items(build: Callable) -> Callable:
    return lambda value: build([copy_value(v) for v in value])


def _encode_seq(tag: str) -> Callable:
    return lambda value: (tag, *map(encode_value, value))


def _encode_sorted(tag: str) -> Callable:
    # The leading type tag of every encoding keeps a mixed multiset
    # totally ordered.
    return lambda value: (tag, *sorted(map(encode_value, value)))


def _encode_dict(value) -> Tuple:
    # Insertion order is kept: iteration order is observable.
    return (
        "d",
        *[(encode_value(k), encode_value(v)) for k, v in value.items()],
    )


_encode_heap = _encode_sorted("heap")


def fingerprint_message(msg) -> Tuple:
    """Every payload slot across the MRO
    (:func:`repro.net.message.payload_fields`), in sorted name order.
    New fields are picked up automatically — the mutation-proof
    property for the wire side of the state."""
    return (
        type(msg).kind,
        *[
            (name, encode_value(getattr(msg, name)))
            for name in payload_fields(type(msg))
        ],
    )


#: type → (copy, encode); ``copy`` is ``None`` for an immutable value,
#: which clones share.  Exact type first; a subclass (``ReqTuple``,
#: ``NodeState``, a planted ``SystemInfo``, any ``Message``) takes the
#: row of its nearest listed base, and an unlisted class whose
#: instances have ``__slots__`` and no ``__dict__`` (``_Grant``, a
#: parked RM) is walked slot by slot — see :func:`_resolve`.
VALUE_TYPES: Dict[type, Tuple[Optional[Callable], Callable]] = {
    type(None): (None, lambda value: ("none",)),
    bool: (None, lambda value: ("b", value)),
    int: (None, lambda value: ("i", value)),
    float: (None, lambda value: ("f", value)),
    str: (None, lambda value: ("s", value)),
    enum.Enum: (
        None,
        lambda value: ("e", type(value).__name__, value.name),
    ),
    tuple: (_share_frozen, _encode_seq("t")),
    list: (_copy_items(list), _encode_seq("l")),
    deque: (_copy_items(deque), _encode_seq("dq")),
    set: (_copy_items(set), _encode_sorted("set")),
    frozenset: (_share_frozen, _encode_sorted("fs")),
    dict: (
        lambda value: {k: copy_value(v) for k, v in value.items()},
        _encode_dict,
    ),
    # snapshot() is a faithful semantic copy (NONL/rows/row_ts/done/
    # _max_ts) with copy-on-write row sharing — exactly the canon
    # slots, at O(N) pointer cost per clone.
    SystemInfo: (
        lambda si: si.snapshot(),
        lambda si: ("si", fingerprint_si(si)),
    ),
    # immutable once sent (net/message.py)
    Message: (None, fingerprint_message),
}

#: rows a subclass does not inherit: its copy would come back a plain
#: instance of the base
_REBUILT = frozenset({list, deque, set, dict})


def _slotted(cls: type) -> Tuple[Callable, Callable]:
    names = sorted(_slot_names(cls))

    def copy(value):
        new = cls.__new__(cls)
        for name in names:
            setattr(new, name, copy_value(getattr(value, name)))
        return new

    def encode(value):
        return (
            cls.__name__,
            *[encode_value(getattr(value, name)) for name in names],
        )

    return copy, encode


def _resolve(value) -> Tuple[Optional[Callable], Callable]:
    """The row for a ``type(value)`` not listed itself, added to the
    table so it is found once per type."""
    cls = type(value)
    row = None
    for base in cls.__mro__:
        if base in VALUE_TYPES:
            row = None if base in _REBUILT else VALUE_TYPES[base]
            break
    else:
        if not cls.__dictoffset__ and hasattr(cls, "__slots__"):
            row = _slotted(cls)
    if row is None:
        raise FingerprintError(
            f"cannot fingerprint or copy a value of type "
            f"{cls.__name__}: {value!r} — give it a row in VALUE_TYPES, "
            f"or exclude the attribute holding it with a justification "
            f"({_HERE})"
        )
    VALUE_TYPES[cls] = row
    return row


def copy_value(value):
    """A copy no transition on the original can reach (an immutable
    value is its own copy)."""
    copy = (VALUE_TYPES.get(type(value)) or _resolve(value))[0]
    return value if copy is None else copy(value)


def encode_value(value) -> Tuple:
    """``value`` as a hashable, comparable tuple led by a type tag."""
    return (VALUE_TYPES.get(type(value)) or _resolve(value))[1](value)


#: (qualified class name, attribute) → encoder replacing the table's,
#: for state whose in-memory layout says more than its behaviour does.
ENCODER_OVERRIDES: Dict[Tuple[str, str], Callable] = {
    ("repro.baselines.quorum_base.QuorumMutexNode", "_waiting"): _encode_heap,
}
