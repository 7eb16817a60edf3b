"""The MPM algorithm (paper §4.1) as a :class:`MutexNode`.

Message flow for one request by node *h*:

1. *h* bumps its own NSIT row, appends its tuple, and launches an RM
   carrying a snapshot of its SI toward a randomly chosen peer
   (lines 3–13).
2. Each node receiving the RM merges the snapshot (Exchange), records
   the request in its own MNL, bumps its Lamport-style row counter,
   and runs Order (lines 33–37).  If the home is now *ordered*:
   highest rank → EM straight to the home; otherwise → IM to the
   home's immediate predecessor in the NONL (lines 38–45).  If
   undecided, the RM is re-snapshotted and forwarded to an unvisited
   node (lines 46–53).
3. The home enters the CS on EM (lines 14–16); on release it marks
   its request finished and, if an IM named its successor, sends the
   successor an EM (lines 17–24) — one hop of synchronization delay.

Engineering notes (DESIGN.md §3): a per-node completion watermark
implements the paper's outdated-tuple detection; an RM that exhausts
its unvisited list while undecided is parked at the current node and
re-evaluated whenever that node's SI changes (never observed in our
runs, matching Lemma 3, but it turns a hypothetical protocol bug into
a measurable counter instead of a hang).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import RCVConfig
from repro.core.errors import ProtocolInvariantError
from repro.core.exchange import ExchangeStats, exchange
from repro.core.forwarding import make_policy
from repro.core.messages import (
    EnterMessage,
    InformMessage,
    RequestMessage,
    SyncReply,
    SyncRequest,
)
from repro.core.order import run_order
from repro.core.state import SystemInfo
from repro.core.tuples import ReqTuple
from repro.mutex.base import Env, Hooks, MutexNode, NodeState
from repro.net.message import Message
from repro.sim.streams import NODE_KIND_RCV_FORWARD, node_stream_name

__all__ = ["RCVNode"]


class _ParkedRM:
    """An RM that drained its unvisited list while undecided."""

    __slots__ = ("home", "tup", "hops")

    def __init__(self, home: int, tup: ReqTuple, hops: int) -> None:
        self.home = home
        self.tup = tup
        self.hops = hops


class RCVNode(MutexNode):
    """One node running the paper's RCV mutual-exclusion algorithm."""

    algorithm_name = "rcv"

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        env: Env,
        hooks: Hooks,
        config: Optional[RCVConfig] = None,
    ) -> None:
        super().__init__(node_id, n_nodes, env, hooks)
        self.config = config or RCVConfig()
        self.si = SystemInfo(n_nodes)
        self.policy = make_policy(self.config.forwarding)
        self.exchange_stats = ExchangeStats()
        #: the node's outstanding request, if any
        self.current_tup: Optional[ReqTuple] = None
        #: successor to wake after our CS (set by an Inform Message)
        self.next_tup: Optional[ReqTuple] = None
        self._parked: List[_ParkedRM] = []
        self._recovery_timer = None
        # The forwarding rng stream is a registry singleton keyed by
        # name; bind it lazily once instead of re-resolving the
        # f-string + registry lookup on every forward.
        self._fwd_rng = None
        # A node may appear in its own exclude set (it is the crashed
        # party and simply should not act); requesting while excluded
        # is rejected in _do_request.
        self._excluded: frozenset = frozenset(self.config.exclude_nodes)
        self.counters: Dict[str, int] = {
            "rm_launched": 0,
            "rm_forwarded": 0,
            "rm_parked": 0,
            "rm_relaunched": 0,
            "rejoins": 0,
            "stale_em": 0,
            "stale_rm": 0,
        }

    # ------------------------------------------------------------------
    # driver API (request / release)
    # ------------------------------------------------------------------
    def _do_request(self) -> None:
        """Paper lines 3–13: register own tuple, launch the RM."""
        if self.node_id in self._excluded:
            raise RuntimeError(
                f"node {self.node_id} is excluded from the membership "
                "and cannot request the CS"
            )
        si = self.si
        ts = si.row_ts[self.node_id] + 1
        si.row_ts[self.node_id] = ts
        si.note_ts(ts)
        tup = ReqTuple(self.node_id, ts)
        si.own_row(self.node_id).append_unique(tup)
        self.current_tup = tup
        if self.n_nodes == 1:
            # Degenerate single-node system: no peers to consult.
            self.si.nonl_append(tup)
            self.si.remove_everywhere(tup)
            self._grant()
            return
        self.counters["rm_launched"] += 1
        self._forward_rm(self.node_id, tup, self._initial_ul(), hops=0)
        self._arm_recovery(tup)

    def _initial_ul(self) -> tuple:
        """Fresh unvisited list: all peers minus the excluded set, as
        the sorted tuple the forwarding policies draw from."""
        if self._excluded:
            return tuple(
                sorted(set(self.peers()) - self._excluded)
            )
        return tuple(sorted(self.peers()))

    # ------------------------------------------------------------------
    # request recovery (optional extension — EXPERIMENTS.md F3)
    # ------------------------------------------------------------------
    def _arm_recovery(self, tup: ReqTuple) -> None:
        if self.config.rm_timeout is None:
            return
        self._recovery_timer = self.env.schedule(
            self.config.rm_timeout, lambda: self._recover(tup)
        )

    def recovery_timeout(self) -> Optional[float]:  # noqa: D102 - see MutexNode
        return self.config.rm_timeout

    def _cancel_recovery(self) -> None:
        if self._recovery_timer is not None:
            self._recovery_timer.cancel()
            self._recovery_timer = None

    def _recover(self, tup: ReqTuple) -> None:
        """Relaunch the RM for a still-pending request, ordered or not.

        A tuple already in our own NONL is no proof that anyone will
        send us an EM: the RM whose host would have sent it, the IM to
        our predecessor, or the EM itself may be the message that was
        lost.  The relaunched RM is ordered again by a host that sends
        the EM, or the IM, once more.
        """
        if self.state is not NodeState.REQUESTING or self.current_tup != tup:
            return  # granted (or a newer request) in the meantime
        self._relaunch(tup)
        self._arm_recovery(tup)

    def _relaunch(self, tup: ReqTuple) -> None:
        """Send the RM for our pending ``tup`` again, from scratch.

        Safe with a duplicate still in flight: the relaunch reuses the
        original tuple, so votes, commits, and notifications are all
        idempotent; only message count can grow.
        """
        self.counters["rm_relaunched"] += 1
        self._forward_rm(self.node_id, tup, self._initial_ul(), hops=0)

    def _grant(self) -> None:  # noqa: D102 - see MutexNode
        self._cancel_recovery()
        super()._grant()

    # ------------------------------------------------------------------
    # crash recovery (engine ``("recover", ...)`` fault kind)
    # ------------------------------------------------------------------
    def rejoin(self) -> None:
        """Rejoin after a fail-stop crash window (docs/faults.md).

        Called by the engine's ``fault:recover`` event right after the
        network revives this node.  The node's in-memory state
        survived (fail-stop, not amnesia) but everything that happened
        during the outage was lost on the wire, so:

        1. if our own request is still pending, re-announce it
           (relaunch the RM with a fresh unvisited list — the same
           rule and the same idempotent-relaunch argument as
           :meth:`_recover`: whether or not we see it ordered, the EM
           or IM it waits for may have been lost in the outage);
        2. resync the SI table: SYNC_REQ to every live peer carrying
           our snapshot; each peer Exchange-merges it and answers with
           SYNC_REP, which we Exchange-merge in turn.  No new merge
           semantics — the paper's Exchange machinery already makes
           state reconciliation commutative and idempotent; RCV's lack
           of a static quorum structure is exactly why a rejoiner
           needs no membership ceremony (Maekawa, the contrast case,
           has no hook and rejoins with stale grant state).
        """
        self.counters["rejoins"] += 1
        if self.state is NodeState.REQUESTING and self.current_tup is not None:
            self._relaunch(self.current_tup)
        for dst in self._initial_ul():
            self.env.send(
                self.node_id, dst, SyncRequest(self.si.snapshot())
            )

    def _do_release(self) -> None:
        """Paper lines 17–24: mark finished, wake the successor."""
        tup = self.current_tup
        assert tup is not None
        self.si.row_ts[self.node_id] += 1  # line 18
        self.si.note_ts(self.si.row_ts[self.node_id])
        self.si.mark_done(tup)
        self.si.normalize()  # removes our tuple from NONL top and MNLs
        self.current_tup = None
        if self.next_tup is not None:
            successor = self.next_tup
            self.next_tup = None
            self.env.send(
                self.node_id,
                successor.node,
                EnterMessage(successor, self.si.snapshot()),
            )
        self._reprocess_parked()

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def on_message(self, src: int, message: Message) -> None:
        if isinstance(message, RequestMessage):
            self._on_rm(message)
        elif isinstance(message, EnterMessage):
            self._on_em(message)
        elif isinstance(message, InformMessage):
            self._on_im(message)
        elif isinstance(message, SyncRequest):
            self._on_sync_request(src, message)
        elif isinstance(message, SyncReply):
            self._on_sync_reply(message)
        else:
            raise TypeError(f"RCVNode cannot handle {message!r}")

    # -- RM -------------------------------------------------------------
    def _on_rm(self, msg: RequestMessage) -> None:
        """Paper lines 33–53."""
        self._exchange(msg.si)
        si = self.si
        tup = msg.tup
        if si.is_done(tup):
            # The request already ran its CS; the roaming copy is
            # stale (cannot happen with a single in-flight RM per
            # request, but we fail soft and count).
            self.counters["stale_rm"] += 1
            self._reprocess_parked()
            return
        if tup not in si.nonl:
            si.own_row(self.node_id).append_unique(tup)  # line 35
        # line 36: max_row_ts() + 1, maintained in O(1)
        si.row_ts[self.node_id] = si.next_ts()
        outcome = run_order(
            si, tup, rule=self.config.rule, excluded=self._excluded
        )  # line 37
        if outcome.be_ordered:
            self._notify_for(tup)  # lines 38–45
        else:
            self._continue_roaming(msg)  # lines 46–53
        self._reprocess_parked()

    def _continue_roaming(self, msg: RequestMessage) -> None:
        if self._excluded:
            excluded = self._excluded
            unvisited = tuple(
                x for x in msg.unvisited if x not in excluded
            )
            if unvisited != msg.unvisited:
                msg = RequestMessage(
                    msg.home, msg.tup, unvisited, msg.si, hops=msg.hops
                )
        if msg.unvisited:
            self._forward_rm(
                msg.home, msg.tup, msg.unvisited, hops=msg.hops + 1
            )
            self.counters["rm_forwarded"] += 1
            return
        # Unvisited list drained while undecided — Lemma 3 says this
        # cannot happen; park rather than deadlock (DESIGN.md §3.4).
        self.counters["rm_parked"] += 1
        self._parked.append(_ParkedRM(msg.home, msg.tup, msg.hops))

    def _forward_rm(
        self,
        home: int,
        tup: ReqTuple,
        unvisited: tuple,
        hops: int,
    ) -> None:
        rng = self._fwd_rng
        if rng is None:
            rng = self._fwd_rng = self.env.rng(
                node_stream_name(NODE_KIND_RCV_FORWARD, self.node_id)
            )
        dest = self.policy.choose(unvisited, self.si, rng)
        i = unvisited.index(dest)
        msg = RequestMessage(
            home,
            tup,
            unvisited[:i] + unvisited[i + 1 :],
            self.si.snapshot(),
            hops=hops,
        )
        self.env.send(self.node_id, dest, msg)

    # -- EM -------------------------------------------------------------
    def _on_em(self, msg: EnterMessage) -> None:
        """Paper lines 14–16: merge info, enter the CS."""
        self._exchange(msg.si)
        tup = msg.target_tup
        if self.state is not NodeState.REQUESTING or tup != self.current_tup:
            self.counters["stale_em"] += 1
            self._reprocess_parked()
            return
        if tup not in self.si.nonl:
            # The EM is the grant authorization (paper lines 14–16
            # enter unconditionally).  Its snapshot can lack our own
            # ordering: a predecessor that learned us only through an
            # IM — whose snapshot the paper never merges — releases
            # with a NONL that no longer mentions us.  The sender's
            # chain guarantees every true predecessor has finished
            # (and its done-vector just told us so), so our tuple
            # belongs at the head.
            self.si.nonl_insert_front(tup)
            self.si.remove_everywhere(tup)
        if not self.si.on_top(tup):
            # A predecessor we believe unfinished survived the EM's
            # done-vector: the grant contradicts our state.
            raise ProtocolInvariantError(
                f"node {self.node_id} received EM for {tup.describe()} "
                f"but still knows unfinished predecessor "
                f"{self.si.nonl[0].describe()}"
            )
        self._grant()
        self._reprocess_parked()

    # -- IM -------------------------------------------------------------
    def _on_im(self, msg: InformMessage) -> None:
        """Paper lines 25–32: record or relay the successor."""
        if self.config.exchange_on_im:
            self._exchange(msg.si)
        self._handle_inform(msg.pred_tup, msg.next_tup)
        self._reprocess_parked()

    def _handle_inform(self, pred_tup: ReqTuple, next_tup: ReqTuple) -> None:
        if pred_tup.node != self.node_id:
            raise ProtocolInvariantError(
                f"IM for predecessor {pred_tup.describe()} delivered to "
                f"node {self.node_id}"
            )
        if self.si.is_done(pred_tup):
            # We already left the CS for that request (lines 26–29).
            self.env.send(
                self.node_id,
                next_tup.node,
                EnterMessage(next_tup, self.si.snapshot()),
            )
            return
        if self.next_tup is not None and self.next_tup != next_tup:
            raise ProtocolInvariantError(
                f"node {self.node_id} told of two successors: "
                f"{self.next_tup.describe()} and {next_tup.describe()}"
            )
        self.next_tup = next_tup  # line 31

    # -- SYNC (crash recovery) -------------------------------------------
    def _on_sync_request(self, src: int, msg: SyncRequest) -> None:
        """A recovered peer asks for our view: merge theirs, reply."""
        self._exchange(msg.si)
        self.env.send(
            self.node_id, src, SyncReply(self.si.snapshot())
        )
        self._reprocess_parked()

    def _on_sync_reply(self, msg: SyncReply) -> None:
        """A peer's snapshot after our rejoin: merge it."""
        self._exchange(msg.si)
        self._reprocess_parked()

    # ------------------------------------------------------------------
    # ordering notifications (paper lines 38–45)
    # ------------------------------------------------------------------
    def _notify_for(self, tup: ReqTuple) -> None:
        """Home ``tup`` just became ordered at this node: tell someone.

        Top of the NONL → EM straight to the home (it may enter now).
        Otherwise → IM to the immediate predecessor so it wakes the
        home when it leaves the CS.
        """
        if self.si.on_top(tup):
            self.env.send(
                self.node_id, tup.node, EnterMessage(tup, self.si.snapshot())
            )
            return
        pred = self.si.predecessor_of(tup)
        if pred is None:
            raise ProtocolInvariantError(
                f"{tup.describe()} ordered but absent from NONL at node "
                f"{self.node_id}"
            )
        if pred.node == self.node_id:
            # We are the predecessor ourselves: no self-send, handle
            # the inform locally.
            self._handle_inform(pred, tup)
        else:
            self.env.send(
                self.node_id,
                pred.node,
                InformMessage(pred, tup, self.si.snapshot()),
            )

    # ------------------------------------------------------------------
    # parked-RM re-evaluation
    # ------------------------------------------------------------------
    def _reprocess_parked(self) -> None:
        if not self._parked:
            return
        still_parked: List[_ParkedRM] = []
        for parked in self._parked:
            if self.si.is_done(parked.tup):
                continue  # request finished through other channels
            outcome = run_order(
                self.si,
                parked.tup,
                rule=self.config.rule,
                excluded=self._excluded,
            )
            if outcome.be_ordered:
                self._notify_for(parked.tup)
            else:
                still_parked.append(parked)
        self._parked = still_parked

    # ------------------------------------------------------------------
    def _exchange(self, msg_si: SystemInfo) -> None:
        exchange(
            self.si,
            msg_si,
            on_inconsistency=self.config.on_inconsistency,
            stats=self.exchange_stats,
        )

    # ------------------------------------------------------------------
    def counter_snapshot(self) -> Dict[str, int]:
        """Protocol counters merged into :class:`RunResult.extra`.

        Includes the incremental-exchange instrumentation
        (:class:`~repro.core.exchange.ExchangeStats`: rows merged vs.
        skipped, clones avoided, prunes run vs. deferred) and the
        SI's copy-on-write counters, aggregated across nodes by the
        engine and exposed through ``MetricsCollector.finalize``.
        """
        out = dict(self.counters)
        stats = self.exchange_stats
        out["nonl_inconsistencies"] = stats.inconsistencies
        out["parked_now"] = len(self._parked)
        out["exchanges"] = stats.exchanges
        out["exch_rows_merged"] = stats.rows_merged
        out["exch_rows_skipped"] = stats.rows_skipped
        out["exch_clones_avoided"] = stats.clones_avoided
        out["exch_prunes_run"] = stats.prunes_run
        out["exch_prunes_deferred"] = stats.prunes_deferred
        out["si_cow_clones"] = self.si.cow_clones
        out["si_snapshots"] = self.si.snapshots_taken
        out["si_prunes_run"] = self.si.prunes_run
        out["si_prunes_skipped"] = self.si.prunes_skipped
        out["si_fronts_rebuilt"] = self.si.fronts_rebuilt
        out["si_fronts_reconciled"] = self.si.fronts_reconciled
        return out
