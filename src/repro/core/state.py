"""System Information (SI) — the replicated state each node maintains.

Paper §3, Figure 2.  Per node:

* ``Next`` — who enters the CS immediately after this node (set by an
  Inform Message);
* ``NONL`` — Node Ordered Node List: the sequence of requests whose
  order to enter the CS has been decided;
* ``NSIT`` — Node System Information Table: one :class:`Row` per node
  ``j`` holding a freshness counter ``ts`` and ``MNL`` — the list of
  request tuples known to have been received at ``j``, in arrival
  order.  The *front* of an MNL is node ``j``'s "vote" in the RCV
  tally.

Clarified mechanism (DESIGN.md §3.1): ``done`` is a per-node
completion watermark — ``done[j]`` is the largest timestamp of a
request by ``j`` known to have *finished* the CS.  A tuple
``<j, t>`` with ``t <= done[j]`` is outdated everywhere and pruned.
The watermark is merged pointwise-max on every exchange, making
outdated-tuple detection order-insensitive (the paper reconstructs
the same information from TS comparisons).

Hot-path design (docs/performance.md, "Columnar row layout")
------------------------------------------------------------

The protocol sends a *snapshot* of the SI inside every message and
merges one on every receipt.  Three layers keep that cheap:

* **Columnar rows** — an MNL is stored as an insertion-ordered
  ``{node: ts}`` int map (:attr:`Row.cols`), not a list of tuple
  objects.  Lemma 1 guarantees at most one tuple per node per MNL,
  so the map is lossless: arrival order is dict insertion order, the
  front is the first key, and membership / removal / the exchange
  suspect tests are O(1) int-keyed lookups instead of O(|MNL|) scans
  over tuple objects.  (A flat ``array``-module vector pair was
  benchmarked and rejected: per-index access re-boxes the ints and
  membership stays O(|MNL|), which is slower in pure Python — see
  docs/performance.md.)  The :attr:`Row.mnl` property keeps the
  historical list-of-:class:`ReqTuple` view for tests and debugging.
* **Copy-on-write rows** — :meth:`SystemInfo.snapshot` shares the
  live :class:`Row` objects with the snapshot and marks them
  ``shared``; a shared row is cloned only when it is next mutated
  (:meth:`SystemInfo.own_row`).  Snapshot content is frozen from the
  receiver's point of view — exactly the old deep-copy guarantee —
  at O(N) pointer copies instead of O(N · |MNL|) content copies.
* **Incremental vote tally** — the SI maintains the per-row fronts
  and the vote histogram live (``_fronts`` / ``_votes`` /
  ``_empty``); mutators only record the touched row index in the
  ``_stale`` set, and :meth:`tally_votes` reconciles the handful of
  stale rows instead of rescanning all N.  ``_fronts_ok = False``
  marks the whole tally invalid (fresh SIs, snapshots, and the
  reference implementations use this), forcing one full O(N)
  rebuild.

Mutation contract
-----------------

All protocol-path mutators (``own_row``, ``mark_done``,
``merge_done``, ``remove_everywhere``, ``prune_*``) keep the
watermark, stale-row and copy-on-write bookkeeping.  Code that
mutates ``rows[j]`` *directly* must first take ownership via
:meth:`SystemInfo.own_row`;
:meth:`Row.append_unique` / :meth:`Row.remove` / the ``mnl`` setter
raise on a shared row to turn silent snapshot corruption into a loud
error.  Direct attribute writes (``si.row_ts[j] = x``,
``si.nonl = [...]``, ``si.done[j] = x``, ``si.rows[j].mnl = [...]``)
remain supported for *building* an SI in tests, but only before the
first snapshot/exchange touches it.
"""

from __future__ import annotations

from itertools import compress
from operator import ne
from typing import Dict, Iterable, List, Optional

from repro.core.tuples import ReqTuple

__all__ = ["Row", "SystemInfo"]

#: ``_new_tuple(ReqTuple, (node, ts))`` equals ``ReqTuple(node, ts)``
#: without the Python-level ``__new__`` the namedtuple defines
_new_tuple = tuple.__new__


class Row:
    """One NSIT row's MNL: requests known received at a node.

    Columnar storage: :attr:`cols` maps ``node -> ts`` in arrival
    order (dict insertion order).  Lemma 1 — at most one tuple per
    node per MNL — makes this exactly equivalent to the historical
    tuple list; :meth:`append_unique` enforces it loudly.

    The row's freshness counter lives in the parallel
    ``SystemInfo.row_ts`` int list (so the Exchange freshness sweep
    is a C-speed list comparison and timestamp bumps never fault a
    copy-on-write clone).  ``shared`` marks the row as referenced by
    more than one :class:`SystemInfo` (live SI + snapshots) — a
    shared row must be cloned before mutation (copy-on-write).
    """

    __slots__ = ("cols", "shared")

    def __init__(self, mnl: Optional[Iterable[ReqTuple]] = None) -> None:
        if mnl is None:
            self.cols: Dict[int, int] = {}
        else:
            mnl = list(mnl)
            self.cols = {t[0]: t[1] for t in mnl}
            if len(self.cols) != len(mnl):
                raise ValueError(
                    f"MNL violates Lemma 1 (two tuples of one node): {mnl}"
                )
        self.shared = False

    # -- historical list-of-tuples view --------------------------------
    @property
    def mnl(self) -> List[ReqTuple]:
        """The MNL as the historical ``List[ReqTuple]`` (arrival
        order).  Builds a fresh list per access — a compatibility /
        debugging view, never used on the protocol hot path."""
        return [ReqTuple(n, t) for n, t in self.cols.items()]

    @mnl.setter
    def mnl(self, tuples: Iterable[ReqTuple]) -> None:
        """Replace the MNL wholesale (test/builder convenience).

        Raises on a shared row (use :meth:`SystemInfo.own_row`) and
        on a Lemma 1 violation (dict storage cannot represent two
        tuples of one node).
        """
        self._assert_owned()
        tuples = list(tuples)
        cols = {t[0]: t[1] for t in tuples}
        if len(cols) != len(tuples):
            raise ValueError(
                f"MNL violates Lemma 1 (two tuples of one node): {tuples}"
            )
        self.cols = cols

    def clone(self) -> "Row":
        """Unshared copy (O(|MNL|)); the clone starts unshared."""
        row = Row.__new__(Row)
        row.cols = self.cols.copy()
        row.shared = False
        return row

    def front(self) -> Optional[ReqTuple]:
        """This row's vote: the oldest pending request it received. O(1)."""
        cols = self.cols
        if not cols:
            return None
        n = next(iter(cols))
        return ReqTuple(n, cols[n])

    def has(self, t: ReqTuple) -> bool:
        """Membership test. O(1)."""
        return self.cols.get(t[0]) == t[1]

    def __len__(self) -> int:
        return len(self.cols)

    def _assert_owned(self) -> None:
        if self.shared:
            raise RuntimeError(
                "cannot mutate a shared (snapshotted) Row; take "
                "ownership first via SystemInfo.own_row(j)"
            )

    def append_unique(self, t: ReqTuple) -> bool:
        """Append ``t`` if absent; returns True when appended. O(1).

        A node never holds two tuples for the same request (Lemma 1);
        duplicates can arrive via message merging and are dropped.
        Mutates the row (raises if the row is shared).
        """
        self._assert_owned()
        cols = self.cols
        node = t[0]
        cur = cols.get(node)
        if cur is not None:
            if cur == t[1]:
                return False
            raise ValueError(
                f"MNL already holds <{node},{cur}>; appending "
                f"<{node},{t[1]}> would violate Lemma 1"
            )
        cols[node] = t[1]
        return True

    def remove(self, t: ReqTuple) -> None:
        """Remove ``t`` if present (no-op otherwise). O(1).

        Mutates the row (raises if the row is shared).
        """
        self._assert_owned()
        if self.cols.get(t[0]) == t[1]:
            del self.cols[t[0]]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tuples = ",".join(f"<{n},{t}>" for n, t in self.cols.items())
        flag = "*" if self.shared else ""
        return f"Row{flag}(mnl=[{tuples}])"


class SystemInfo:
    """The SI structure of one node (or the snapshot inside a message).

    See the module docstring for the columnar / copy-on-write /
    incremental-tally design.
    """

    __slots__ = (
        "n",
        "nonl",
        "rows",
        "row_ts",
        "done",
        "next_node",
        "_done_gen",
        "_clean_done_gen",
        "_adv",
        "_adv_gen",
        "_max_ts",
        "_need_share",
        "_fronts",
        "_votes",
        "_empty",
        "_stale",
        "_fronts_ok",
        "cow_clones",
        "snapshots_taken",
        "prunes_run",
        "prunes_skipped",
        "fronts_rebuilt",
        "fronts_reconciled",
    )

    def __init__(self, n: int) -> None:
        self.n = n
        self.nonl: List[ReqTuple] = []
        self.rows: List[Row] = [Row() for _ in range(n)]
        #: per-row freshness counters (the paper's row TS), parallel
        #: to ``rows`` — kept out of Row so freshness comparisons and
        #: bumps are plain int-list operations.
        self.row_ts: List[int] = [0] * n
        self.done: List[int] = [0] * n
        self.next_node: Optional[int] = None
        # Watermark bookkeeping: ``_done_gen`` counts watermark
        # advances, ``_clean_done_gen`` remembers the watermark
        # generation the rows/NONL were last pruned against.  Equal
        # counters ⇒ nothing new finished ⇒ prune_done may skip.
        self._done_gen = 0
        self._clean_done_gen = 0
        # Tracked advances: ``_adv`` holds the nodes whose watermark
        # advanced since the last prune, and is complete while
        # ``_adv_gen == _done_gen`` (every advance since then came
        # through mark_done/merge_done).  prune_done then visits only
        # rows holding one of those nodes; see prune_done.
        self._adv: set = set()
        self._adv_gen = 0
        self._max_ts = 0
        # Rows unshared since the last snapshot (copy-on-write
        # epoch): the next snapshot needs to re-mark only these.
        # None means "mark everything" (fresh SI / untracked rows).
        self._need_share = None
        # Incremental vote tally: the tallied front per row, the live
        # vote histogram over those fronts, and the count of empty
        # (unknown-vote) rows.  ``_stale`` holds indices of rows
        # mutated since the tally was last reconciled;
        # ``_fronts_ok = False`` invalidates the whole tally (full
        # O(N) rebuild on next use) — fresh SIs, snapshots, and code
        # that mutates rows outside the tracked mutators use it.
        self._fronts: List[Optional[ReqTuple]] = []
        self._votes: Dict[ReqTuple, int] = {}
        self._empty = 0
        self._stale: set = set()
        self._fronts_ok = False
        #: instrumentation: rows cloned lazily by copy-on-write
        self.cow_clones = 0
        #: instrumentation: snapshots taken of this SI
        self.snapshots_taken = 0
        #: instrumentation: prune_done full scans run / skipped
        self.prunes_run = 0
        self.prunes_skipped = 0
        #: instrumentation: vote-tally full rebuilds / stale rows
        #: reconciled incrementally (the work the columnar tally does
        #: vs. the N-row rescans it avoids)
        self.fronts_rebuilt = 0
        self.fronts_reconciled = 0

    # ------------------------------------------------------------------
    # snapshots (messages carry frozen copies) and copy-on-write
    # ------------------------------------------------------------------
    def snapshot(self) -> "SystemInfo":
        """Copy of the shareable parts (Next stays local). O(N).

        Copy-on-write: the snapshot *shares* the live :class:`Row`
        objects and marks them ``shared``; whoever mutates a shared
        row first (this SI or a receiver that adopted the row) clones
        it then.  Observably equivalent to the historical deep copy —
        the snapshot's content can never change — without the
        O(N · |MNL|) content copying per message.
        """
        si = SystemInfo.__new__(SystemInfo)
        si.n = self.n
        si.nonl = list(self.nonl)
        rows = self.rows
        need = self._need_share
        if need is None:
            for row in rows:
                row.shared = True
        else:
            # Only rows owned (hence unshared) since the previous
            # snapshot can need re-marking.
            for j in need:
                rows[j].shared = True
        self._need_share = []
        si.rows = list(rows)
        si.row_ts = list(self.row_ts)
        si.done = list(self.done)
        si.next_node = None
        si._done_gen = 0
        # The snapshot inherits this SI's pruning state: its rows are
        # exactly as clean w.r.t. its watermark as ours are.
        si._clean_done_gen = 0 if self._clean_done_gen == self._done_gen else -1
        # A clean snapshot starts an empty advance log; a dirty one
        # starts with the log broken, so its first prune scans all.
        si._adv = set()
        si._adv_gen = si._clean_done_gen
        si._max_ts = self._max_ts
        si._need_share = []  # every row of a fresh snapshot is shared
        si._fronts = []
        si._votes = {}
        si._empty = 0
        si._stale = set()
        si._fronts_ok = False
        si.cow_clones = 0
        si.snapshots_taken = 0
        si.prunes_run = 0
        si.prunes_skipped = 0
        si.fronts_rebuilt = 0
        si.fronts_reconciled = 0
        self.snapshots_taken += 1
        return si

    def own_row(self, j: int) -> Row:
        """Return ``rows[j]`` guaranteed unshared and safe to mutate.

        Clones the row first iff it is shared (the copy-on-write
        fault, O(|MNL|); O(1) otherwise).  Callers request ownership
        only to mutate, so this also marks the row's tallied vote
        stale.
        """
        row = self.rows[j]
        self._stale.add(j)
        if row.shared:
            row = row.clone()
            self.rows[j] = row
            self.cow_clones += 1
            if self._need_share is not None:
                self._need_share.append(j)
        return row

    def _replace_cols(self, j: int, new_cols: Dict[int, int]) -> None:
        """Install ``new_cols`` as row ``j``'s MNL with full
        copy-on-write/stale-row bookkeeping, without the intermediate
        copy an ``own_row()`` + filter pair would make. O(1) beyond
        the caller-built dict."""
        rows = self.rows
        row = rows[j]
        self._stale.add(j)
        if row.shared:
            new = Row.__new__(Row)
            new.cols = new_cols
            new.shared = False
            rows[j] = new
            self.cow_clones += 1
            ns = self._need_share
            if ns is not None:
                ns.append(j)
        else:
            row.cols = new_cols

    # ------------------------------------------------------------------
    # watermark and pruning
    # ------------------------------------------------------------------
    def is_done(self, t: ReqTuple) -> bool:
        """True iff ``t`` is known to have finished its CS. O(1)."""
        return t.ts <= self.done[t.node]

    def _note_advance(self) -> None:
        """Count one watermark advance whose nodes are in ``_adv``."""
        gen = self._done_gen
        if self._adv_gen == gen:
            self._adv_gen = gen + 1
        self._done_gen = gen + 1

    def mark_done(self, t: ReqTuple) -> None:
        """Raise the completion watermark to cover ``t``. O(1).

        Mutates ``done`` (monotone) and flags the watermark dirty so
        the next :meth:`prune_done` performs a real scan.
        """
        node, ts = t
        if ts > self.done[node]:
            self.done[node] = ts
            self._adv.add(node)
            self._note_advance()

    def merge_done(self, other_done: Iterable[int]) -> bool:
        """Pointwise-max merge of a remote watermark. O(N).

        Returns True iff any entry advanced (callers use this to
        decide whether pruning can be skipped).
        """
        done = self.done
        if other_done == done:
            return False
        merged = [a if a >= b else b for a, b in zip(done, other_done)]
        if merged == done:
            return False
        self._adv.update(compress(range(len(merged)), map(ne, merged, done)))
        self.done = merged
        self._note_advance()
        return True

    def prune_done(self, *, force: bool = False) -> bool:
        """Drop finished requests from NONL and every MNL.

        Amortised: a scan runs only when the watermark advanced since
        the previous prune (or ``force`` is given); otherwise the rows
        are already clean and the call is O(1).  Returns True iff the
        scan ran.

        The scan reads only rows holding a node whose watermark
        advanced (``_adv``): every other row was clean at the last
        prune and no entry of it can have become outdated since.
        That holds while every advance went through
        :meth:`mark_done`/:meth:`merge_done` (``_adv_gen ==
        _done_gen``); code that bumps ``_done_gen`` itself, a dirty
        snapshot and ``force`` get the full O(N · |MNL|) scan.
        """
        if not force and self._clean_done_gen == self._done_gen:
            self.prunes_skipped += 1
            return False
        done = self.done
        if self.nonl and any(t[1] <= done[t[0]] for t in self.nonl):
            self.nonl = [t for t in self.nonl if t[1] > done[t[0]]]
        adv = self._adv
        tracked = not force and self._adv_gen == self._done_gen
        j = -1
        for row in self.rows:
            j += 1
            cols = row.cols
            if tracked and adv.isdisjoint(cols):
                continue
            bad = None
            for node, ts in cols.items():
                if ts <= done[node]:
                    if bad is None:
                        bad = [node]
                    else:
                        bad.append(node)
            if bad:
                new_cols = cols.copy()
                for k in bad:
                    del new_cols[k]
                self._replace_cols(j, new_cols)
        adv.clear()
        self._adv_gen = self._clean_done_gen = self._done_gen
        self.prunes_run += 1
        return True

    def remove_everywhere(self, t: ReqTuple) -> None:
        """Delete ``t`` from all MNLs (paper: 'from any row of NSIT').

        O(N) int-keyed lookups; only rows actually holding ``t`` are
        copy-on-write-faulted and mutated.
        """
        node, ts = t
        stale_add = self._stale.add
        j = -1
        for row in self.rows:
            j += 1
            cols = row.cols
            if node in cols and cols[node] == ts:
                if row.shared:
                    new_cols = cols.copy()
                    del new_cols[node]
                    self._replace_cols(j, new_cols)
                else:
                    stale_add(j)
                    del cols[node]

    def prune_ordered_from_rows(self) -> None:
        """Remove every NONL member from every MNL. O(N · |MNL|).

        Ordered tuples no longer compete in the vote (Order lines
        14–15); after merging remote rows this re-establishes that.
        Only rows that actually change are faulted and mutated.
        """
        if not self.nonl:
            return
        ordered = set(self.nonl)
        for j, row in enumerate(self.rows):
            bad = None
            for node, ts in row.cols.items():
                if (node, ts) in ordered:
                    if bad is None:
                        bad = [node]
                    else:
                        bad.append(node)
            if bad:
                new_cols = row.cols.copy()
                for k in bad:
                    del new_cols[k]
                self._replace_cols(j, new_cols)

    def force_normalize(self) -> None:
        """Full, unconditional O(N · |MNL|) restore of both pruning
        invariants — for SIs built or mutated outside the tracked
        mutators (tests, reference implementations)."""
        self._fronts_ok = False
        self.prune_done(force=True)
        self.prune_ordered_from_rows()

    # ------------------------------------------------------------------
    # NONL mutators
    # ------------------------------------------------------------------
    def nonl_append(self, t: ReqTuple) -> None:
        """Commit ``t`` to the back of the NONL. O(1)."""
        self.nonl.append(t)

    def nonl_insert_front(self, t: ReqTuple) -> None:
        """Place ``t`` at the head of the NONL. O(|NONL|)."""
        self.nonl.insert(0, t)

    def set_nonl(self, nonl: List[ReqTuple]) -> None:
        """Replace the NONL wholesale (merge result). O(1)."""
        self.nonl = nonl

    # ------------------------------------------------------------------
    # vote tallying (input to the Order procedure)
    # ------------------------------------------------------------------
    def _sync_fronts(self) -> bool:
        """Bring ``_fronts``/``_votes``/``_empty`` up to date.

        Full O(N) rebuild when the tally is invalid; otherwise
        reconciles only the rows in ``_stale`` (O(|stale|)).  Returns
        True iff the histogram may have changed.

        The front is the first key (``for n in cols: break``) and is
        built by :data:`_new_tuple`, skipping ``ReqTuple.__new__``'s
        Python frame.
        """
        if not self._fronts_ok:
            fronts: List[Optional[ReqTuple]] = []
            votes: Dict[ReqTuple, int] = {}
            get = votes.get
            empty = 0
            append = fronts.append
            for row in self.rows:
                cols = row.cols
                if cols:
                    for n in cols:
                        break
                    f = _new_tuple(ReqTuple, (n, cols[n]))
                    append(f)
                    votes[f] = get(f, 0) + 1
                else:
                    append(None)
                    empty += 1
            self._fronts = fronts
            self._votes = votes
            self._empty = empty
            self._stale.clear()
            self._fronts_ok = True
            self.fronts_rebuilt += 1
            return True
        stale = self._stale
        if not stale:
            return False
        self.fronts_reconciled += len(stale)
        fronts = self._fronts
        votes = self._votes
        rows = self.rows
        changed = False
        for j in stale:
            cols = rows[j].cols
            old = fronts[j]
            if cols:
                for n in cols:
                    break
                ts = cols[n]
                if old is not None and old[0] == n and old[1] == ts:
                    continue
                f = _new_tuple(ReqTuple, (n, ts))
            else:
                if old is None:
                    continue
                f = None
            changed = True
            if old is not None:
                c = votes[old] - 1
                if c:
                    votes[old] = c
                else:
                    del votes[old]
            else:
                self._empty -= 1
            if f is not None:
                votes[f] = votes.get(f, 0) + 1
            else:
                self._empty += 1
            fronts[j] = f
        stale.clear()
        return changed

    def _vote_scan(self, excluded: frozenset) -> tuple:
        """The vote tally and the empty-row (unknown-vote) count of
        the rows outside ``excluded``, by one plain O(N) scan.
        Exclusion experiments are rare: they pay this scan rather
        than a histogram kept per exclusion set."""
        votes: Dict[ReqTuple, int] = {}
        get = votes.get
        empty = 0
        for j, row in enumerate(self.rows):
            if j in excluded:
                continue
            cols = row.cols
            if cols:
                n = next(iter(cols))
                f = ReqTuple(n, cols[n])
                votes[f] = get(f, 0) + 1
            else:
                empty += 1
        return votes, empty

    def tally_votes(self, excluded: frozenset = frozenset()) -> Dict[ReqTuple, int]:
        """Map each candidate tuple to the number of MNLs it fronts.

        Rows of ``excluded`` (crashed) nodes do not vote: their fronts
        can never change, so counting them could wedge the election.
        Without exclusions, O(|changed rows|) to reconcile the live
        histogram plus O(C) to copy it, so the returned dict stays
        frozen at this call; with them, one O(N) scan.
        """
        if excluded:
            return self._vote_scan(excluded)[0]
        self._sync_fronts()
        return dict(self._votes)

    def empty_row_count(self, excluded: frozenset = frozenset()) -> int:
        """Rows with no known pending request — the 'unknown votes'.

        Excluded rows are not unknown: the membership agreement says
        they will never vote, so the threshold closes without them.
        """
        if excluded:
            return self._vote_scan(excluded)[1]
        self._sync_fronts()
        return self._empty

    # ------------------------------------------------------------------
    # NONL queries
    # ------------------------------------------------------------------
    def position_in_nonl(self, t: ReqTuple) -> Optional[int]:
        """Index of ``t`` in the NONL, or None. O(|NONL|)."""
        try:
            return self.nonl.index(t)
        except ValueError:
            return None

    def predecessor_of(self, t: ReqTuple) -> Optional[ReqTuple]:
        """Immediate predecessor of ``t`` in the NONL, if any.
        O(|NONL|); the protocol asks once per IM notification."""
        pos = self.position_in_nonl(t)
        if pos is None or pos == 0:
            return None
        return self.nonl[pos - 1]

    def on_top(self, t: ReqTuple) -> bool:
        """True iff ``t`` heads the NONL. O(1)."""
        return bool(self.nonl) and self.nonl[0] == t

    # ------------------------------------------------------------------
    def max_row_ts(self) -> int:
        """Largest row freshness counter (Lamport-style clock). O(N).

        Honest scan, usable on hand-built SIs; the protocol hot path
        uses :meth:`next_ts`, which maintains the maximum
        incrementally (row timestamps are monotone, so the maximum
        only ever grows — every tracked mutation notes it).
        """
        return max(self.row_ts)

    def note_ts(self, ts: int) -> None:
        """Record a row-timestamp write so :meth:`next_ts` stays
        exact. O(1).  Every protocol-path ``row_ts`` increase calls
        this (or goes through :meth:`next_ts`/row adoption, which
        note it themselves)."""
        if ts > self._max_ts:
            self._max_ts = ts

    def next_ts(self) -> int:
        """The next Lamport-style row timestamp: one above the
        largest ever noted. O(1) replacement for
        ``max_row_ts() + 1`` on the RM hot path."""
        self._max_ts += 1
        return self._max_ts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        nonl = ",".join(t.describe() for t in self.nonl)
        return f"SystemInfo(nonl=[{nonl}], done={self.done})"
