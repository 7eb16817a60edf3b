"""Canonical registry of deterministic ``RunResult.extra`` counters.

The protocol and fault layers surface exact, bit-for-bit reproducible
work counters through ``RunResult.extra`` (aggregated across nodes by
``Engine._finalize``).  Their names are declared here, once, with a
one-line description each, so the producers (``core/node.py``,
``engine/engine.py``) and the docs can never drift apart.  The
registry enforces itself where the counters flow:
``Engine._finalize`` raises :class:`UndeclaredCounterError` for any
``extra`` key — whatever its spelling — that is not a key of
:data:`COUNTERS`, so every run checks its emitters.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["COUNTERS", "UndeclaredCounterError"]


class UndeclaredCounterError(ValueError):
    """A run emitted a ``RunResult.extra`` key that :data:`COUNTERS`
    does not declare: a reader spelling the registered name would
    silently compare ``extra.get(name, 0)`` — zero against zero."""


#: Every deterministic counter a run may carry in ``RunResult.extra``,
#: with what it measures.  Producers and consumers both reference
#: these names; see docs/performance.md for how to read them.
COUNTERS: Dict[str, str] = {
    # -- protocol-level (core/node.py counter_snapshot) ----------------
    "exchanges": "Exchange procedures executed (one per IM received)",
    "nonl_inconsistencies": "non-Lemma-1 SI inconsistencies observed",
    "parked_now": "messages parked awaiting order at finalize time",
    "rm_launched": "Request Messages launched (one per CS request)",
    "rm_forwarded": "RM hops: an undecided RM sent on to an unvisited node",
    "rm_parked": "undecided RMs parked with an empty unvisited list",
    "rm_relaunched": "RMs launched again by the recovery timer or a rejoin",
    "rejoins": "crash recoveries (rejoin() calls)",
    "stale_rm": "RMs discarded on arrival: their request was already done",
    "stale_em": "EMs ignored on arrival: not for the outstanding request",
    # -- incremental-exchange instrumentation (ExchangeStats) ----------
    "exch_rows_merged": "SI rows adopted or merged from a peer snapshot",
    "exch_rows_skipped": "SI rows skipped as not fresher (row_ts sweep)",
    "exch_clones_avoided": "row clones avoided by reference adoption",
    "exch_prunes_run": "prune_done sweeps actually executed",
    "exch_prunes_deferred": "prune_done sweeps amortised away (watermark)",
    # -- columnar SI state (core/state.py) -----------------------------
    "si_cow_clones": "copy-on-write row clones (row copied on mutation)",
    "si_snapshots": "SI snapshots taken for outgoing messages",
    "si_prunes_run": "SI prune scans actually executed",
    "si_prunes_skipped": "SI prune scans skipped (nothing below watermark)",
    "si_fronts_rebuilt": "vote-front tallies rebuilt from scratch",
    "si_fronts_reconciled": "vote-front tallies reconciled incrementally",
    # -- fault fabric (engine/engine.py; fault runs only) --------------
    "net_fault_drops": "messages dropped by the injected fault channel",
    "net_fault_dups": "messages duplicated by the injected fault channel",
    # -- reliable channel (engine/engine.py; retx runs only) -----------
    "net_retx_retransmits": "retransmission attempts by the reliable channel",
    "net_retx_suppressed": "duplicate deliveries suppressed by receive-side dedupe",
    "net_retx_giveups": "messages abandoned after exhausting max_retries",
    "net_retx_acks_lost": "acks lost to the drop fault (one spurious resend each)",
}
