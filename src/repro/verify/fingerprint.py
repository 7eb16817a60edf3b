"""Canonical state fingerprints and state copies — one walker for both.

Two worlds with equal fingerprints are merged during exploration, so
a value *missing* from a fingerprint collapses distinct states and
makes the checker unsound; a value a clone *shares* with its original
lets one world's transition leak into another.  How a value is
encoded and how it is copied are therefore two columns of one table,
:data:`repro.canon.VALUE_TYPES`, a row per type the protocol state may
hold: the cloner and the fingerprint cannot disagree about a type, and
a type with no row is a :class:`FingerprintError`, never a guess.  The
same table keys cells and frames the TCP wire (:mod:`repro.canon`);
this module holds what only the checker knows — which attributes are
state.

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

``SystemInfo`` alone has a hand-written encoder
(:func:`repro.canon.fingerprint_si`; its copy is the protocol's own
copy-on-write ``snapshot()``), so it keeps a canon table beside its
exclusions and :func:`assert_canon_complete` checks that the two
partition its slots.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.canon import CanonError, _encode_sorted, _slot_names, encode_value
from repro.core.state import SystemInfo

__all__ = [
    "ENCODER_OVERRIDES",
    "FingerprintError",
    "NODE_EXCLUDED",
    "SYSTEMINFO_CANON",
    "SYSTEMINFO_EXCLUDED",
    "assert_canon_complete",
    "node_canon",
]

_HERE = "src/repro/verify/fingerprint.py"


#: a value the walker can neither encode nor copy, or an exclusion
#: table that drifted from its class: the state model changed
FingerprintError = CanonError


# ----------------------------------------------------------------------
# SystemInfo
# ----------------------------------------------------------------------
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
    "_done_gen": "watermark-advance counter (prune amortization only)",
    "_clean_done_gen": (
        "prune bookkeeping; affects whether a scan is skipped, never "
        "its result"
    ),
    "_adv": (
        "nodes whose watermark advanced since the last prune; decides "
        "which rows a prune reads, never its result"
    ),
    "_adv_gen": "prune bookkeeping (whether _adv is complete)",
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


_encode_heap = _encode_sorted("heap")

#: (qualified class name, attribute) → encoder replacing the table's,
#: for state whose in-memory layout says more than its behaviour does.
ENCODER_OVERRIDES: Dict[Tuple[str, str], Callable] = {
    ("repro.baselines.quorum_base.QuorumMutexNode", "_waiting"): _encode_heap,
}
