"""Reliable delivery: an ack/retransmit discipline over any channel.

PR 7's fault fabric measures RCV under loss and shows it strands —
with no retransmission, any dropped handshake message costs liveness
(the completion-rate cliff in ``BENCH_campaign.json``'s ``faults``
section).  :class:`ReliableChannel` is the opt-in transport fix: an
at-least-once delivery discipline with receive-side dedupe, layered
over the fault fabric exactly the way
:class:`~repro.net.faults.FaultyChannel` layers over the base
discipline::

    ReliableChannel( FaultyChannel( RawChannel | FifoChannel ) )

**The analytic model.**  The simulator computes delivery timestamps at
send time (:meth:`~repro.net.channels.ChannelDiscipline
.delivery_times`), so retransmission is modeled analytically rather
than as explicit timer events: each send makes up to ``1 +
max_retries`` *attempts*, attempt ``k`` transmitted at

    ``t_k = send_time + rto * (backoff^0 + ... + backoff^(k-1))``

(the deterministic timeout/backoff schedule of a per-message
retransmit timer).  An attempt is **lost** when the fault fabric drops
it (the inner :class:`~repro.net.faults.FaultyChannel` returns no
timestamps — drawn from the ``net/faults`` stream, so retransmits
compose with the PR-7 drop/dup/reorder vocabulary), when a scheduled
partition window severs the pair at transmit time, or when the
destination is crashed at the would-be delivery instant (a send from
a host that is down never starts).  The plan is asked here and only
here: a retx run's :class:`~repro.net.network.Network` holds no
outages of its own.  The first
surviving attempt delivers **exactly one** copy: sequence numbers and
cumulative acks make the receiver suppress both fault-duplicated
copies and retransmitted ones, so a message is delivered at most once
no matter how the faults compose.  A message whose every attempt is
lost is a **give-up** (``net_retx_giveups``) — at-least-once delivery
is a best effort under a finite retry budget, and a cell that still
loses liveness is a campaign result with completion < 1, exactly as
without retx.

Ack loss is modeled on the counter level: when the drop fault is
active, each successful delivery's ack is lost with the same
probability (drawn from the **``net/retx``** stream — the discipline's
own named stream, so enabling retransmission never perturbs the
delay, workload, or fault draws), which costs one spurious retransmit
that the receiver's dedupe suppresses.  Spurious traffic shows up in
``net_retx_retransmits`` / ``net_retx_suppressed``; the paper-level
NME metric stays protocol-level (one ``NetworkStats`` count per
protocol send) by design — transport chatter is reported separately, see
docs/faults.md ("Recovery").

Determinism: the retransmit schedule is pure arithmetic on the
normalized ``("retx", rto, backoff, max_retries)`` spec; the only
randomness is the ack-loss draw on ``net/retx``.  A retx cell is a
*different cell* from its no-retx twin (the spec participates in the
cache key), and a run with ``retx=()`` builds the exact pre-retx
stack — clean results stay bit-for-bit identical.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Tuple

from repro.net.channels import ChannelDiscipline
from repro.net.delay import DelayModel
from repro.net.faults import FaultPlan

__all__ = ["ReliableChannel", "normalize_retx"]


def normalize_retx(retx) -> Tuple:
    """Canonical ``("retx", rto, backoff, max_retries)`` spec, or ``()``.

    ``rto`` is the first retransmit timeout (> 0), ``backoff`` the
    multiplicative factor applied per retry (>= 1; 1.0 is a constant
    timer), ``max_retries`` the retry budget per message (>= 1).  An
    empty spec disables the discipline entirely.  Raises
    :class:`ValueError` naming the bad field.
    """
    if not retx:
        return ()
    retx = tuple(retx)
    if retx[0] != "retx":
        raise ValueError(
            f"unknown retx spec kind {retx[:1]!r} (want "
            '("retx", rto, backoff, max_retries))'
        )
    if len(retx) != 4:
        raise ValueError(
            f"retx spec {retx!r}: want (\"retx\", rto, backoff, "
            "max_retries)"
        )
    try:
        rto = float(retx[1])
        backoff = float(retx[2])
        max_retries = int(retx[3])
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"retx spec {retx!r} has non-numeric fields")
    if not (0.0 < rto < math.inf):
        raise ValueError(f"retx rto must be finite and > 0, got {rto!r}")
    if not (1.0 <= backoff < math.inf):
        raise ValueError(
            f"retx backoff must be finite and >= 1, got {backoff!r}"
        )
    if max_retries != retx[3] or max_retries < 1:
        raise ValueError(
            f"retx max_retries must be a whole number >= 1, got {retx[3]!r}"
        )
    return ("retx", rto, backoff, max_retries)


class ReliableChannel(ChannelDiscipline):
    """At-least-once delivery with dedupe, over any inner discipline.

    ``spec`` is the normalized retx tuple (see :func:`normalize_retx`);
    ``rng`` the ``net/retx`` stream (ack-loss draws only); ``plan`` the
    run's :class:`~repro.net.faults.FaultPlan` (or None) — pure data,
    consulted for the scheduled outages retransmission must bridge.
    Per-run counters live here (the plan stays shareable across
    seeds, like :class:`~repro.net.faults.FaultyChannel`'s).
    """

    def __init__(
        self,
        inner: ChannelDiscipline,
        spec: Tuple,
        rng: random.Random,
        *,
        plan: Optional[FaultPlan] = None,
    ) -> None:
        spec = normalize_retx(spec)
        if not spec:
            raise ValueError("ReliableChannel needs a non-empty retx spec")
        self.inner = inner
        self.spec = spec
        _, self.rto, self.backoff, self.max_retries = spec
        self.rng = rng
        self.plan = plan
        #: retransmissions performed (loss-triggered and spurious)
        self.retransmits = 0
        #: duplicate deliveries suppressed by receive-side dedupe
        self.suppressed = 0
        #: messages abandoned after the full retry budget
        self.giveups = 0
        #: acks lost to the drop fault (each costs one spurious resend)
        self.acks_lost = 0

    # ------------------------------------------------------------------
    def delivery_times(
        self,
        src: int,
        dst: int,
        send_time: float,
        delay_model: DelayModel,
        rng: random.Random,
    ) -> Tuple[float, ...]:
        plan = self.plan
        t_attempt = send_time
        timeout = self.rto
        for attempt in range(1 + self.max_retries):
            if attempt:
                self.retransmits += 1
            lost = False
            if plan is not None and plan.node_down(src, t_attempt):
                if not attempt:
                    return ()  # a dead host sends nothing, arms no timer
                # The sender is down when this retransmit timer fires:
                # nothing leaves the host.  (A crashed-then-recovered
                # sender's timers survive with its state — crashes are
                # fail-stop at the network level.)
                lost = True
            elif plan is not None and plan.pair_cut(src, dst, t_attempt):
                lost = True
            else:
                times = self.inner.delivery_times(
                    src, dst, t_attempt, delay_model, rng
                )
                if not times:
                    lost = True  # swallowed by the drop fault
                else:
                    deliver_at = times[0]
                    # Fault-duplicated copies are caught by the
                    # receiver's sequence numbers.
                    self.suppressed += len(times) - 1
                    if plan is not None and plan.node_down(dst, deliver_at):
                        lost = True
            if not lost:
                # Delivered.  Model the ack's journey back: under the
                # drop fault it is lost with the same probability,
                # which triggers one spurious retransmit the dedupe
                # suppresses (bounded by the remaining retry budget).
                if (
                    plan is not None
                    and plan.drop
                    and attempt < self.max_retries
                    and self.rng.random() < plan.drop
                ):
                    self.acks_lost += 1
                    self.retransmits += 1
                    self.suppressed += 1
                return (deliver_at,)
            t_attempt += timeout
            timeout *= self.backoff
        self.giveups += 1
        return ()

    def __repr__(self) -> str:
        return f"ReliableChannel({self.inner!r}, {self.spec!r})"
