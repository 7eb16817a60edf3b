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
from heapq import heappush as _heappush
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.channels import ChannelDiscipline, RawChannel
from repro.net.delay import ConstantDelay, DelayModel
from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.sim.kernel import Simulator, delay_error
from repro.sim.process import Actor

__all__ = ["Network", "NetworkStats", "SeedlessNetworkError"]

_NEVER = float("inf")


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
    """Running message accounting.

    :meth:`Network.send` counts each protocol send here (total, per
    ``kind`` and weight).  No delivery pays for ``delivered_total``:
    it is the deliveries scheduled (sends less ``unscheduled``: an
    outage or drop adds one, a duplicate takes one) less those
    ``pending`` on the heap, frozen by :meth:`Network.clear`.
    """

    sent_total: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    weighted_units: int = 0
    unscheduled: int = 0
    pending: Callable[[], int] = field(default=lambda: 0, repr=False)

    @property
    def delivered_total(self) -> int:
        return self.sent_total - self.unscheduled - self.pending()


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
    outages:
        The :class:`~repro.net.faults.FaultPlan` whose partitions and
        crashes this network enforces, or None.  A send is lost when,
        at the instant it is made, its source or destination is down
        or the pair is cut; a packet already on the wire still
        arrives (a crash does not retract it).  Lost sends still
        count as sent: they left the node.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        delay_model: Optional[DelayModel] = None,
        channel: Optional[ChannelDiscipline] = None,
        rng=None,
        outages: Optional[FaultPlan] = None,
    ) -> None:
        self.sim = sim
        self.delay_model = delay_model or ConstantDelay(5.0)
        self.channel = channel or RawChannel()
        self.rng = rng if rng is not None else _SeedlessRng()
        self.stats = NetworkStats(pending=self._pending_deliveries)
        # dst -> its on_message, bound per run, never on the node
        self._handlers: Dict[int, Callable[[int, Message], None]] = {}
        self._taps: List[Callable[[int, int, Message, float], None]] = []
        self.outages = outages
        # the kernel's heap and seq counter, only ever mutated in place
        self._heap, self._seq = sim._heap, sim._count
        # The RawChannel branch: a RawChannel has no per-pair
        # ordering state, so an untapped send skips the discipline and
        # does its arithmetic here (exact-type check: a subclass may
        # add state).  With a delay model that exposes fixed per-pair
        # delays (pair_constant), it skips the sampler too: the cache
        # holds the pre-bound per-(src, dst) delay, checked when
        # cached.  The cache is disabled entirely (None) for other
        # channels and for delay models whose pair_constant cannot be
        # trusted to describe sample(), and lazily when pair_constant
        # reports a stochastic pair.
        self._raw = type(self.channel) is RawChannel
        self._pair_delays: Optional[Dict[Tuple[int, int], float]] = (
            {}
            if self._raw and _pair_constant_trusted(self.delay_model)
            else None
        )

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, actor: Actor) -> None:
        """Register an actor as addressable by its ``actor_id``: its
        ``on_message`` receives every message sent to it."""
        if actor.actor_id in self._handlers:
            raise ValueError(f"actor id {actor.actor_id} already registered")
        self._handlers[actor.actor_id] = actor.on_message

    def clear(self) -> None:
        """Forget every registered actor (the engine's teardown),
        freezing ``stats.delivered_total`` first."""
        pending = self._pending_deliveries()
        self.stats.pending = lambda: pending
        self._handlers.clear()

    def _pending_deliveries(self) -> int:
        ours = {id(handler) for handler in self._handlers.values()}
        return sum(
            type(e[2]) is partial and id(e[2].func) in ours for e in self._heap
        )

    def add_tap(
        self, tap: Callable[[int, int, Message, float], None]
    ) -> None:
        """Observe every send as ``tap(src, dst, message, deliver_at)``.

        Used by the trace recorder and by tests asserting on message
        flow; taps must not mutate the message.
        """
        self._taps.append(tap)

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
        handler = self._handlers.get(dst)
        if handler is None:
            raise KeyError(f"unknown destination node {dst}")
        stats = self.stats
        stats.sent_total = message.msg_id = stats.sent_total + 1
        units = message.units
        stats.weighted_units += units if units is not None else message.size_units()
        by_kind = stats.by_kind
        kind = message.kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        # The kernel's clock, read from its slot: the ``now`` property
        # would be one more Python call on every hop.
        now = self.sim._now
        outages = self.outages
        if outages is not None and (
            outages.node_down(src, now)
            or outages.node_down(dst, now)
            or outages.pair_cut(src, dst, now)
        ):
            stats.unscheduled += 1
            return  # lost to an outage
        deliver = partial(handler, src, message)
        if self._raw and not self._taps:
            pair_delays = self._pair_delays
            delay = None
            if pair_delays is not None:
                delay = pair_delays.get((src, dst))
                if delay is None:
                    delay = self.delay_model.pair_constant(src, dst)
                    if delay is None:
                        # Stochastic model: the cache would skip rng
                        # draws and change the stream; off for good.
                        self._pair_delays = None
                    elif not 0 <= delay < _NEVER:
                        raise delay_error(delay)
                    else:
                        pair_delays[(src, dst)] = delay
            if delay is None:
                # RawChannel.delivery_times, inline: the same draw and
                # the same arithmetic as the general path below.
                delay = now + self.delay_model.sample(src, dst, self.rng) - now
                if not 0 <= delay < _NEVER:
                    raise delay_error(delay)
            _heappush(self._heap, (now + delay, next(self._seq), deliver))
            return
        # A discipline may deliver a send zero times (fault-dropped),
        # once (the normal case), or twice (fault-duplicated); taps
        # observe each scheduled delivery, so dropped messages leave
        # no tap record.  A time already past is refused, and the heap
        # key is ``now + (deliver_at - now)``: the kernel's float.
        times = self.channel.delivery_times(
            src, dst, now, self.delay_model, self.rng
        )
        stats.unscheduled += 1 - len(times)
        for deliver_at in times:
            delay = deliver_at - now
            if not 0 <= delay < _NEVER:
                raise delay_error(delay)
            for tap in self._taps:
                tap(src, dst, message, deliver_at)
            _heappush(self._heap, (now + delay, next(self._seq), deliver))
