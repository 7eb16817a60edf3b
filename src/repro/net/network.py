"""Message delivery fabric.

:class:`Network` binds a :class:`~repro.sim.kernel.Simulator` to a set
of registered :class:`~repro.sim.process.Actor` instances and delivers
messages after a delay chosen by the configured
:class:`~repro.net.delay.DelayModel` and
:class:`~repro.net.channels.ChannelDiscipline`.

It also owns the message accounting: counts per message ``kind`` and
total, which the metrics layer divides by completed CS executions to
obtain the paper's NME measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.channels import ChannelDiscipline, RawChannel
from repro.net.delay import ConstantDelay, DelayModel
from repro.net.message import Message
from repro.sim.kernel import Simulator
from repro.sim.process import Actor

__all__ = ["Network", "NetworkStats", "SeedlessNetworkError"]


class SeedlessNetworkError(RuntimeError):
    """A stochastic delay model drew randomness from a Network that was
    built without an ``rng``."""


class _SeedlessRng:
    """Placeholder rng for Networks constructed without one.

    Constant-delay networks (the paper's default) never draw, so they
    may omit ``rng``.  The first *draw* from this placeholder raises:
    the historical fallback was a shared ``Random(0)``, which made two
    stochastic networks in one process correlated with each other and
    untied from the experiment's seed tree — runs looked reproducible
    while silently ignoring the configured seed.
    """

    def __getattr__(self, name: str):
        raise SeedlessNetworkError(
            "this Network has a stochastic delay model or channel but was "
            "built without an rng; pass one from the experiment's seed "
            "tree, e.g. Network(sim, rng=rngs.stream(STREAM_NET_DELAY)) "
            "with RngRegistry(seed) from repro.sim.rng and "
            "STREAM_NET_DELAY from repro.sim.streams"
        )


def _pair_constant_trusted(model: DelayModel) -> bool:
    """True if ``model.pair_constant`` provably describes ``model.sample``.

    ``pair_constant`` is a promise about ``sample``; a subclass that
    overrides ``sample`` *below* the class providing ``pair_constant``
    (e.g. adding jitter on top of ``ConstantDelay``) breaks that
    promise, so the fast path must not trust the inherited value.
    """
    cls = type(model)
    pc_owner = next(
        (base for base in cls.__mro__ if "pair_constant" in vars(base)), None
    )
    if pc_owner is None or pc_owner is DelayModel:
        return False  # only the abstract default (always None)
    sample_owner = next(
        (base for base in cls.__mro__ if "sample" in vars(base)), None
    )
    if sample_owner is None:
        return False
    return not (
        sample_owner is not pc_owner and issubclass(sample_owner, pc_owner)
    )


@dataclass
class NetworkStats:
    """Running message accounting."""

    sent_total: int = 0
    delivered_total: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    weighted_units: int = 0

    def record_send(self, message: Message) -> None:
        self.sent_total += 1
        self.weighted_units += message.size_units()
        self.by_kind[message.kind] = self.by_kind.get(message.kind, 0) + 1

    def snapshot(self) -> "NetworkStats":
        return NetworkStats(
            sent_total=self.sent_total,
            delivered_total=self.delivered_total,
            by_kind=dict(self.by_kind),
            weighted_units=self.weighted_units,
        )


class Network:
    """Reliable, possibly reordering, message-passing fabric.

    Parameters
    ----------
    sim:
        The simulation kernel providing time and scheduling.
    delay_model:
        Per-message propagation delay (default: the paper's constant
        Tn = 5).
    channel:
        Ordering discipline (default: :class:`RawChannel`, i.e. no
        FIFO guarantee — the paper's weakest assumption).
    rng:
        Random stream used by stochastic delay models.  Optional only
        for networks that never draw (constant delays, RawChannel);
        the first draw without one raises
        :class:`SeedlessNetworkError` instead of silently falling back
        to an ad-hoc seed outside the experiment's stream tree.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        delay_model: Optional[DelayModel] = None,
        channel: Optional[ChannelDiscipline] = None,
        rng=None,
    ) -> None:
        self.sim = sim
        self.delay_model = delay_model or ConstantDelay(5.0)
        self.channel = channel or RawChannel()
        self.rng = rng if rng is not None else _SeedlessRng()
        self.stats = NetworkStats()
        self._actors: Dict[int, Actor] = {}
        self._taps: List[Callable[[int, int, Message, float], None]] = []
        self._partitioned: set[tuple[int, int]] = set()
        self._failed: set[int] = set()
        # Fast-path delivery: on a RawChannel (no per-pair ordering
        # state) with a delay model that exposes fixed per-pair delays
        # (pair_constant), sends skip the channel discipline and the
        # sampler.  The cache holds the pre-bound per-(src, dst)
        # delay; it is disabled entirely (None) for stateful channels
        # (exact-type check) and for delay models whose pair_constant
        # cannot be trusted to describe sample(), and lazily when
        # pair_constant reports a stochastic pair.
        self._pair_delays: Optional[Dict[Tuple[int, int], float]] = (
            {}
            if type(self.channel) is RawChannel
            and _pair_constant_trusted(self.delay_model)
            else None
        )

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, actor: Actor) -> None:
        """Register an actor as addressable by its ``actor_id``."""
        if actor.actor_id in self._actors:
            raise ValueError(f"actor id {actor.actor_id} already registered")
        self._actors[actor.actor_id] = actor

    def actor(self, actor_id: int) -> Actor:
        return self._actors[actor_id]

    @property
    def n_actors(self) -> int:
        return len(self._actors)

    def add_tap(
        self, tap: Callable[[int, int, Message, float], None]
    ) -> None:
        """Observe every send as ``tap(src, dst, message, deliver_at)``.

        Used by the trace recorder and by tests asserting on message
        flow; taps must not mutate the message.
        """
        self._taps.append(tap)

    # ------------------------------------------------------------------
    # fault injection (used by resilience tests)
    # ------------------------------------------------------------------
    def partition(self, a: int, b: int) -> None:
        """Silently drop messages between ``a`` and ``b`` (both ways)."""
        self._partitioned.add((a, b))
        self._partitioned.add((b, a))

    def heal(self, a: int, b: int) -> None:
        self._partitioned.discard((a, b))
        self._partitioned.discard((b, a))

    def fail_node(self, node_id: int) -> None:
        """Crash ``node_id``: all of its traffic is silently dropped.

        Models a fail-stop crash at the network level (the paper's §4
        resilience narrative: "crash of nodes will not affect the
        algorithm's execution", inherited from MCV).  In-flight
        messages already scheduled for delivery still arrive — a crash
        does not retract packets on the wire — but the crashed node
        neither sends nor receives from the crash instant on.
        """
        self._failed.add(node_id)

    def recover_node(self, node_id: int) -> None:
        self._failed.discard(node_id)

    def is_failed(self, node_id: int) -> bool:
        return node_id in self._failed

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, message: Message) -> None:
        """Send ``message`` from ``src`` to ``dst``.

        Self-sends are rejected: every algorithm in this repository
        models local state transitions as function calls, and a
        self-send almost always indicates a protocol bug.
        """
        if src == dst:
            raise ValueError(f"node {src} attempted to send to itself")
        actor = self._actors.get(dst)
        if actor is None:
            raise KeyError(f"unknown destination node {dst}")
        self.stats.record_send(message)
        handles_outages = self.channel.handles_outages
        if (src, dst) in self._partitioned and not handles_outages:
            return  # dropped by the injected partition
        if src in self._failed:
            return  # fail-stop crash: a dead host transmits nothing
        if dst in self._failed and not handles_outages:
            # Traffic towards a crashed node is lost — unless the
            # channel discipline models outages itself (ReliableChannel
            # retransmits past the outage window from the fault plan).
            return
        pair_delays = self._pair_delays
        if pair_delays is not None and not self._taps:
            delay = pair_delays.get((src, dst))
            if delay is None:
                delay = self.delay_model.pair_constant(src, dst)
                if delay is None:
                    # Stochastic model: the fast path would skip rng
                    # draws and change the stream; disable it for good.
                    self._pair_delays = None
                else:
                    pair_delays[(src, dst)] = delay
            if delay is not None:
                self.sim.schedule_fast(
                    delay, partial(self._deliver, actor, src, message)
                )
                return
        # A discipline may deliver a send zero times (fault-dropped),
        # once (the normal case), or twice (fault-duplicated); taps
        # observe each scheduled delivery, so dropped messages leave
        # no tap record.  The kernel takes delays, so a discipline
        # answering with a time already past is refused there.
        now = self.sim.now
        for deliver_at in self.channel.delivery_times(
            src, dst, now, self.delay_model, self.rng
        ):
            for tap in self._taps:
                tap(src, dst, message, deliver_at)
            self.sim.schedule_fast(
                deliver_at - now, partial(self._deliver, actor, src, message)
            )

    def _deliver(self, actor: Actor, src: int, message: Message) -> None:
        self.stats.delivered_total += 1
        actor.deliver(src, message)

    def broadcast(self, src: int, message_factory: Callable[[int], Message]) -> int:
        """Send an individually constructed message to every other node.

        ``message_factory(dst)`` builds the per-destination message
        (protocols must not share mutable payload across copies).
        Returns the number of messages sent.
        """
        count = 0
        for dst in self._actors:
            if dst == src:
                continue
            self.send(src, dst, message_factory(dst))
            count += 1
        return count
