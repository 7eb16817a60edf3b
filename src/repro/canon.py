"""The value canon: the one typed encoding of every value the program
compares, hashes, stores or sends.

:data:`VALUE_TYPES` gives each type a node's state, a message or a
cell may hold two columns: how it is copied, and how it is encoded — a
hashable tuple led by a type tag, so ``0``, ``False`` and ``0.0`` stay
three values.  A type with no row is a :class:`CanonError`, never a
guess.  The model checker fingerprints and clones through it
(:mod:`repro.verify.fingerprint`), a ``CellSpec`` is compared, hashed,
keyed and documented by it, and the TCP runtime sends :func:`dumps`.

:func:`loads` is the inverse for what a peer may send: the scalar and
container rows, ``ReqTuple``, a ``SystemInfo`` from
its four canon slots and the message kinds the caller names, each
field of the type its class annotates; anything else is a
:class:`CanonError`, and nothing runs code a peer chose.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import reprlib
import typing
from collections import deque
from functools import lru_cache
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.core.state import Row, SystemInfo
from repro.core.tuples import ReqTuple
from repro.net.message import Message, payload_fields, payload_types

__all__ = [
    "CanonError",
    "MAX_DEPTH",
    "VALUE_TYPES",
    "copy_value",
    "dumps",
    "encode_value",
    "fingerprint_message",
    "fingerprint_si",
    "loads",
]

_HERE = "src/repro/canon.py"

#: the deepest nesting :func:`loads` builds (a frame of any registry
#: algorithm is 4 deep)
MAX_DEPTH = 32


class CanonError(ValueError):
    """A value the canon has no row for, or text that is not the
    canon of any value it may build."""


# ----------------------------------------------------------------------
# encoding
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


def fingerprint_message(msg) -> Tuple:
    """Kind and every payload slot across the MRO
    (:func:`repro.net.message.payload_fields`), in sorted name order:
    a field added to any message is picked up automatically."""
    names = payload_fields(type(msg))
    return ("m", type(msg).kind, *[(n, encode_value(getattr(msg, n))) for n in names])


def _share_frozen(value):
    # A tuple or frozenset is shared, never rebuilt (a NamedTuple
    # would not survive ``type(value)(items)``), so everything in it
    # must be shareable too.
    for item in value:
        if copy_value(item) is not item:
            raise CanonError(
                f"{value!r} holds a mutable {type(item).__name__}: a "
                f"copy cannot share it — hold a list instead ({_HERE})"
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
    return ("d", *[(encode_value(k), encode_value(v)) for k, v in value.items()])


def _named(cls: type) -> Tuple[Callable, Callable]:
    """Shared like a tuple, tagged with its class to come back as it."""
    name = cls.__name__
    return _share_frozen, lambda value: ("nt", name, *map(encode_value, value))


def _frozen_dataclass(cls: type) -> Tuple[Callable, Callable]:
    names = [f.name for f in dataclasses.fields(cls)]

    def copy(value):
        _share_frozen([getattr(value, name) for name in names])
        return value

    return copy, lambda value: (
        "dc", cls.__name__, *[(n, encode_value(getattr(value, n))) for n in names]
    )


def _slot_names(cls: type) -> set:
    return {
        name
        for klass in cls.__mro__
        for name in getattr(klass, "__slots__", ())
    }


def _slotted(cls: type) -> Tuple[Callable, Callable]:
    names = sorted(_slot_names(cls))

    def copy(value):
        new = cls.__new__(cls)
        for name in names:
            setattr(new, name, copy_value(getattr(value, name)))
        return new

    return copy, lambda value: (
        cls.__name__, *[encode_value(getattr(value, name)) for name in names]
    )


#: type → (copy, encode); ``copy`` is ``None`` for an immutable value,
#: which copies share.  Exact type first; a subclass (``NodeState``, a
#: planted ``SystemInfo``, any ``Message``) takes the row of its
#: nearest listed base, a NamedTuple its own class-tagged row, a frozen
#: dataclass (``RCVConfig``) its fields, and an unlisted class whose
#: instances have ``__slots__`` and no ``__dict__`` (``_Grant``, a
#: parked RM) is walked slot by slot — see :func:`_resolve`.
VALUE_TYPES: Dict[type, Tuple[Optional[Callable], Callable]] = {
    type(None): (None, lambda value: ("none",)),
    bool: (None, lambda value: ("b", value)),
    int: (None, lambda value: ("i", value)),
    float: (None, lambda value: ("f", value)),
    str: (None, lambda value: ("s", value)),
    enum.Enum: (None, lambda value: ("e", type(value).__name__, value.name)),
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
    # slots, at O(N) pointer cost per copy.
    SystemInfo: (lambda si: si.snapshot(), lambda si: ("si", *fingerprint_si(si))),
    # immutable once sent (net/message.py)
    Message: (None, fingerprint_message),
}

#: rows a subclass does not inherit: its copy would come back a plain
#: instance of the base
_REBUILT = frozenset({list, deque, set, dict})


def _resolve(value) -> Tuple[Optional[Callable], Callable]:
    """The row for a ``type(value)`` not listed itself, added to the
    table so it is found once per type."""
    cls = type(value)
    row = None
    if issubclass(cls, tuple) and hasattr(cls, "_fields"):
        row = _named(cls)
    elif dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen:
        row = _frozen_dataclass(cls)
    else:
        for base in cls.__mro__:
            if base in VALUE_TYPES:
                row = None if base in _REBUILT else VALUE_TYPES[base]
                break
        else:
            if not cls.__dictoffset__ and hasattr(cls, "__slots__"):
                row = _slotted(cls)
    if row is None:
        raise CanonError(
            f"cannot encode or copy a value of type {cls.__name__}: "
            f"{value!r} — give it a row in VALUE_TYPES ({_HERE}), or, "
            "for a node attribute the checker walks, exclude it with a "
            "justification (src/repro/verify/fingerprint.py)"
        )
    VALUE_TYPES[cls] = row
    return row


def copy_value(value):
    """A copy no change to the original can reach (an immutable value
    is its own copy)."""
    copy = (VALUE_TYPES.get(type(value)) or _resolve(value))[0]
    return value if copy is None else copy(value)


def encode_value(value) -> Tuple:
    """``value`` as a hashable, comparable tuple led by a type tag."""
    return (VALUE_TYPES.get(type(value)) or _resolve(value))[1](value)


def dumps(value) -> str:
    """The canonical text of ``value``: its encoding as compact JSON
    (a tuple is an array), the same characters in every process."""
    return json.dumps(encode_value(value), separators=(",", ":"))


# ----------------------------------------------------------------------
# decoding: the inverse, for the rows a peer may send
# ----------------------------------------------------------------------
def loads(text, kinds: Optional[Mapping[str, type]] = None):
    """The value whose :func:`dumps` is ``text`` (``str`` or UTF-8
    ``bytes``); ``kinds`` maps each message kind that may appear to
    its class.  Anything else is a :class:`CanonError`."""
    try:
        tree = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # not JSON, not UTF-8, an int of too many digits, too deep
        raise CanonError(f"not a canon text: {exc}") from None
    return _decode(tree, kinds or {}, 0)


def _decode(tree, kinds: Mapping[str, type], depth: int):
    if depth > MAX_DEPTH:
        raise CanonError(f"nested deeper than MAX_DEPTH ({MAX_DEPTH})")
    if type(tree) is not list or not tree or type(tree[0]) is not str:
        raise CanonError(f"{_brief(tree)} is not a tagged value")
    decode = _DECODERS.get(tree[0])
    if decode is None:
        raise CanonError(f"{_brief(tree)} is not a value the canon builds")
    return decode(tree[1:], kinds, depth + 1)


#: a decoded tree as an error message shows it: bounded in depth and
#: length, so a hostile tree cannot make the message itself fail
_REPR = reprlib.Repr()
_REPR.maxlevel, _REPR.maxstring = 3, 40
_brief = _REPR.repr


def _build(build: Callable, items):
    try:
        return build(items)
    except TypeError as exc:  # an unhashable member or key
        raise CanonError(f"cannot build a {build.__name__}: {exc}") from None


def _scalar(cls: type) -> Callable:
    def decode(args, kinds, depth):
        if len(args) != 1 or type(args[0]) is not cls:
            raise CanonError(f"{_brief(args)} is not one {cls.__name__}")
        return args[0]

    return decode


def _decode_none(args, kinds, depth):
    if args:
        raise CanonError(f"{_brief(args)} follows a none tag")


def _items(build: Callable) -> Callable:
    return lambda args, kinds, depth: _build(
        build, [_decode(item, kinds, depth) for item in args]
    )


def _decode_dict(args, kinds, depth):
    pairs = []
    for pair in args:
        if type(pair) is not list or len(pair) != 2:
            raise CanonError(f"{_brief(pair)} is not a (key, value) pair")
        pairs.append(tuple(_decode(item, kinds, depth) for item in pair))
    return _build(dict, pairs)


#: the NamedTuples :func:`loads` builds, by the name their rows carry
_NAMED = {cls.__name__: cls for cls in (ReqTuple,)}


def _decode_named(args, kinds, depth):
    cls = _NAMED.get(args[0]) if args and type(args[0]) is str else None
    if cls is None or len(args) != 1 + len(cls._fields):
        raise CanonError(f"{_brief(args)} is not a NamedTuple loads builds")
    return tuple.__new__(cls, [_decode(item, kinds, depth) for item in args[1:]])


def _int_pairs(tree) -> list:
    if type(tree) is not list or not all(
        type(pair) is list
        and len(pair) == 2
        and type(pair[0]) is int
        and type(pair[1]) is int
        for pair in tree
    ):
        raise CanonError(f"{_brief(tree)} is not a list of (node, ts) pairs")
    return tree


def _ints(tree, n: int) -> list:
    if type(tree) is not list or len(tree) != n or not all(
        type(x) is int for x in tree
    ):
        raise CanonError(f"{_brief(tree)} is not {n} ints")
    return tree


def _row(pairs) -> Row:
    row = Row()
    row.cols = dict(_int_pairs(pairs))
    if len(row.cols) != len(pairs):
        raise CanonError(f"{_brief(pairs)} holds two tuples of one node")
    return row


def _decode_si(args, kinds, depth):
    """A SystemInfo from its four canon slots; the rest of it is
    rebuilt as a snapshot of a not-yet-pruned SI is."""
    if len(args) != 4 or type(args[1]) is not list or not args[1]:
        raise CanonError(f"{_brief(args)} is not (nonl, rows, row_ts, done)")
    nonl, rows, row_ts, done = args
    si = SystemInfo(0)
    si.n = len(rows)
    si.nonl = [ReqTuple(*pair) for pair in _int_pairs(nonl)]
    si.rows = [_row(pairs) for pairs in rows]
    si.row_ts = _ints(row_ts, si.n)
    si.done = _ints(done, si.n)
    si._max_ts = max(si.row_ts)
    si._clean_done_gen = -1  # its first prune scans every row
    return si.snapshot()


def _decode_message(args, kinds, depth):
    cls = kinds.get(args[0]) if args and type(args[0]) is str else None
    if cls is None:
        raise CanonError(
            f"{_brief(args[:1])} is not a message kind this host knows"
        )
    names, fields = payload_fields(cls), args[1:]
    if len(fields) != len(names) or any(
        type(field) is not list or len(field) != 2 or field[0] != name
        for field, name in zip(fields, names)
    ):
        raise CanonError(
            f"a {args[0]} carries the fields {list(names)}, not "
            f"{_brief(fields)}"
        )
    msg = cls.__new__(cls)
    types = payload_types(cls)
    for name, tree in fields:
        value = _decode(tree, kinds, depth)
        if not _conforms(value, types[name]):
            raise CanonError(
                f"a {args[0]}'s {name} must be {_type_name(types[name])}, "
                f"not {_brief(tree)}"
            )
        setattr(msg, name, value)
    return msg


_hints = lru_cache(maxsize=None)(typing.get_type_hints)


def _conforms(value, hint) -> bool:
    """Whether ``value`` has the annotated type ``hint``: a class
    exactly (``True`` is no ``int``), a NamedTuple field by field, a
    ``List[T]`` or ``Tuple[T, ...]`` item by item."""
    origin = typing.get_origin(hint)
    if origin is None:
        return type(value) is hint and (
            not hasattr(hint, "_fields")
            or all(map(_conforms, value, _hints(hint).values()))
        )
    item = typing.get_args(hint)[0]
    return type(value) is origin and all(_conforms(v, item) for v in value)


def _type_name(hint) -> str:
    """``hint`` as its annotation spells it (``int``, ``List[int]``)."""
    return hint.__name__ if isinstance(hint, type) else str(hint).replace("typing.", "")


_DECODERS: Dict[str, Callable] = {
    "none": _decode_none,
    "b": _scalar(bool),
    "i": _scalar(int),
    "f": _scalar(float),
    "s": _scalar(str),
    "t": _items(tuple),
    "nt": _decode_named,
    "l": _items(list),
    "dq": _items(deque),
    "set": _items(set),
    "fs": _items(frozenset),
    "d": _decode_dict,
    "si": _decode_si,
    "m": _decode_message,
}
