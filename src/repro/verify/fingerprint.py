"""Canonical state fingerprints — the checker's notion of equality.

Two worlds with equal fingerprints are merged during exploration, so
an attribute *missing* from a fingerprint silently collapses distinct
states and makes the checker unsound (states are skipped); an
attribute that is pure bookkeeping but *included* splits equal states
and blows up the search.  Every mutable attribute therefore must be
listed in exactly one of two literal tables per structure:

* ``*_CANON`` — attribute name → encoder; part of the fingerprint;
* ``*_EXCLUDED`` — attribute name → justification string explaining
  why leaving it out cannot hide a reachable state.

One guard keeps the tables honest, and it runs where they are used:
:func:`assert_canon_complete` compares them against the live
instance's attributes every time a model builds its nodes, so every
``repro.verify`` world construction checks them.  Adding an attribute
to the protocol state — in ``__init__`` or anywhere else that runs
before the world is built — without deciding its fingerprint fate is
a :class:`FingerprintError`; so is an entry naming an attribute the
instance no longer has, an attribute in both tables, and an exclusion
whose justification is blank.

Message fingerprints need no table: they are derived generically from
``__slots__`` across the MRO, so a new message field is included
automatically (failing loudly on field types the encoder does not
understand), with only the global construction counter ``msg_id``
excluded — it numbers messages across the whole process and would
otherwise make equal protocol states compare unequal between runs.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.state import SystemInfo
from repro.net.message import payload_fields
from repro.verify.errors import VerifyError

__all__ = [
    "FingerprintError",
    "RCV_NODE_CANON",
    "RCV_NODE_EXCLUDED",
    "SYSTEMINFO_CANON",
    "SYSTEMINFO_EXCLUDED",
    "RA_NODE_CANON",
    "RA_NODE_EXCLUDED",
    "QUORUM_NODE_CANON",
    "QUORUM_NODE_EXCLUDED",
    "MESSAGE_SLOT_EXCLUDED",
    "assert_canon_complete",
    "fingerprint_from_table",
    "fingerprint_message",
    "fingerprint_si",
]


class FingerprintError(VerifyError):
    """A value reached the fingerprint encoder that it cannot encode.

    Raised instead of guessing: an unencodable field means the state
    model changed and the fingerprint (and this module) must be
    updated deliberately.
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
# RCVNode (including the attributes inherited from Actor/MutexNode)
# ----------------------------------------------------------------------
def _enc_state(state) -> str:
    return state.value


def _enc_opt_tup(tup):
    return None if tup is None else tuple(tup)


def _enc_parked(parked) -> Tuple:
    return tuple((p.home, tuple(p.tup), p.hops) for p in parked)


#: Mutable RCVNode attributes that are part of the fingerprint.
RCV_NODE_CANON = {
    "state": _enc_state,
    "si": fingerprint_si,
    "current_tup": _enc_opt_tup,
    "next_tup": _enc_opt_tup,
    "_parked": _enc_parked,
}

#: RCVNode attributes excluded from the fingerprint.  The node's
#: identity is positional — fingerprints are collected in node-id
#: order — so the id-like constants carry no extra information.
RCV_NODE_EXCLUDED = {
    "actor_id": "fixed at construction; equals node_id (positional)",
    "node_id": "fixed at construction; the fingerprint is positional",
    "n_nodes": "construction constant",
    "env": "infrastructure reference (the checker's ModelEnv)",
    "hooks": "infrastructure reference; grant/release effects are "
    "fully captured by NodeState",
    "request_time": "metrics-only timestamp; logical time is frozen "
    "at 0 under the checker",
    "cs_count": "derivable: requests issued (the world's request "
    "ledger) minus the one still outstanding",
    "config": "frozen dataclass, identical in every state",
    "policy": "stateless strategy object chosen by config",
    "exchange_stats": "instrumentation counters",
    "_recovery_timer": "always None under the checker: ModelEnv "
    "refuses timers and the model forces rm_timeout=None",
    "_fwd_rng": "cached env.rng handle; forwarding nondeterminism is "
    "enumerated explicitly through the ChoiceSource",
    "_excluded": "frozen derivative of config.exclude_nodes",
    "counters": "instrumentation counters",
}


# ----------------------------------------------------------------------
# Baseline nodes
# ----------------------------------------------------------------------
def _enc_sorted(values) -> Tuple:
    return tuple(sorted(values))


RA_NODE_CANON = {
    "state": _enc_state,
    "clock": int,
    "req_ts": lambda v: v,
    "_awaiting": _enc_sorted,
    "_deferred": _enc_sorted,
}

RA_NODE_EXCLUDED = {
    "actor_id": "fixed at construction; equals node_id (positional)",
    "node_id": "fixed at construction; the fingerprint is positional",
    "n_nodes": "construction constant",
    "env": "infrastructure reference",
    "hooks": "infrastructure reference",
    "request_time": "metrics-only; logical time frozen at 0",
    "cs_count": "derivable from the world's request ledger",
}


def _enc_grant(grant):
    if grant is None:
        return None
    return (grant.priority, grant.origin, grant.seq, grant.no, grant.inquired)


def _enc_waiting(heap) -> Tuple:
    # A binary heap's list layout depends on insertion order, but
    # every heappop depends only on the multiset of entries — two
    # heaps with equal content behave identically.  Canonicalize as
    # the sorted multiset so equivalent arbiter states merge.
    return tuple(sorted(heap))


QUORUM_NODE_CANON = {
    "state": _enc_state,
    "clock": int,
    "seq": int,
    "_voted_for_me": _enc_sorted,
    "_saw_failed": bool,
    "_held_inquiries": tuple,
    "_relinquished": _enc_sorted,
    "_lock": _enc_grant,
    "_grant_no": int,
    "_waiting": _enc_waiting,
    "_failed_notified": _enc_sorted,
}

QUORUM_NODE_EXCLUDED = {
    "actor_id": "fixed at construction; equals node_id (positional)",
    "node_id": "fixed at construction; the fingerprint is positional",
    "n_nodes": "construction constant",
    "env": "infrastructure reference",
    "hooks": "infrastructure reference",
    "request_time": "metrics-only; logical time frozen at 0",
    "cs_count": "derivable from the world's request ledger",
    "quorum": "construction constant (the node's quorum set)",
}


# ----------------------------------------------------------------------
# generic machinery
# ----------------------------------------------------------------------
def assert_canon_complete(obj, tables: str) -> None:
    """The one guard on the canon tables: ``obj``'s attributes are
    exactly the entries of this module's ``<tables>_CANON`` and
    ``<tables>_EXCLUDED``, each in one of the two, every exclusion
    justified.  Called once per world construction, so the cost is
    negligible; every failure is a :class:`FingerprintError` naming
    the attributes and the table to edit.
    """
    canon_name, excluded_name = f"{tables}_CANON", f"{tables}_EXCLUDED"
    excluded = globals()[excluded_name]
    in_canon, in_excluded = set(globals()[canon_name]), set(excluded)
    # slots along the MRO plus the instance dict: a subclass of a
    # slotted class that declares no __slots__ of its own has both
    attrs = set(getattr(obj, "__dict__", ())) | {
        name
        for klass in type(obj).__mro__
        for name in getattr(klass, "__slots__", ())
    }
    stale = "the instance has no such attribute"
    for names, problem in (
        (
            in_canon & in_excluded,
            f"are in both {canon_name} and {excluded_name} — pick one",
        ),
        (
            attrs - in_canon - in_excluded,
            f"are in neither {canon_name} nor {excluded_name} — two "
            "states differing only there would fingerprint equal and "
            "the checker would skip reachable states",
        ),
        (in_canon - attrs, f"are stale entries of {canon_name} — {stale}"),
        (
            in_excluded - attrs,
            f"are stale entries of {excluded_name} — {stale}",
        ),
        (
            {
                name
                for name, why in excluded.items()
                if not (isinstance(why, str) and why.strip())
            },
            f"have no justification in {excluded_name} — leaving state "
            "out of the fingerprint is a soundness claim and must say "
            "why it is safe",
        ),
    ):
        if names:
            raise FingerprintError(
                f"{type(obj).__name__} attributes {sorted(names)} "
                f"{problem} (src/repro/verify/fingerprint.py)"
            )


def fingerprint_from_table(obj, canon: dict) -> Tuple:
    """Apply a canon table to an instance; encoders run in table order."""
    return tuple(enc(getattr(obj, name)) for name, enc in canon.items())


#: Message slots excluded from fingerprints.
MESSAGE_SLOT_EXCLUDED = {
    "msg_id": (
        "global construction counter — numbers messages across the "
        "whole process, so including it would make equal protocol "
        "states compare unequal between runs"
    ),
}


def _encode_value(value) -> Tuple:
    """Encode one message field as a homogeneous comparable tuple.

    The leading type tag keeps tuples of mixed field types totally
    ordered (fingerprint multisets are sorted), and an unknown type
    raises instead of guessing.
    """
    if value is None:
        return ("none",)
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, int):
        return ("i", value)
    if isinstance(value, str):
        return ("s", value)
    if isinstance(value, SystemInfo):
        return ("si", fingerprint_si(value))
    if isinstance(value, tuple):  # includes ReqTuple
        return ("t",) + tuple(_encode_value(v) for v in value)
    if isinstance(value, frozenset):
        return ("fs",) + tuple(sorted(_encode_value(v) for v in value))
    raise FingerprintError(
        f"cannot fingerprint message field of type "
        f"{type(value).__name__}: {value!r} — teach "
        f"repro/verify/fingerprint.py about it"
    )


def fingerprint_message(msg) -> Tuple:
    """Generic message fingerprint: every payload slot across the MRO
    (:func:`repro.net.message.payload_fields`), in sorted name order.
    New fields are picked up automatically — the mutation-proof
    property for the wire side of the state."""
    return (type(msg).kind,) + tuple(
        (name, _encode_value(getattr(msg, name)))
        for name in payload_fields(type(msg))
    )
