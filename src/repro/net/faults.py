"""Deterministic fault fabric: adversarial-network models as data.

The paper's §1/§4 resilience narrative claims RCV tolerates non-FIFO
channels and needs no specific node to stay up.  The campaign layer
turns that claim into sweepable experiment axes: a **fault spec** is
a normalized, hashable tuple of fault tuples —

==============================================  =======================
fault tuple                                     semantics
==============================================  =======================
``("drop", p)``                                 each message is lost
                                                with probability ``p``
``("dup", p)``                                  each message is
                                                delivered twice with
                                                probability ``p`` (the
                                                copy samples its own
                                                delay)
``("reorder", window)``                         each delivery is
                                                delayed by an extra
                                                uniform draw from
                                                ``[0, window)`` —
                                                widening the
                                                overtaking window far
                                                beyond what the delay
                                                model alone produces
``("partition", ((t_cut, t_heal, a, b), ...))`` between ``t_cut`` and
                                                ``t_heal`` every
                                                message crossing the
                                                ``a``/``b`` node-group
                                                boundary is silently
                                                dropped (both ways); a
                                                window ``(t_cut,
                                                t_heal, K)`` splits
                                                the first ``K`` nodes
                                                from the rest
``("crash", ((node, t), ...))``                 ``node`` fail-stops at
                                                ``t``: from then on it
                                                neither sends nor
                                                receives; packets
                                                already on the wire
                                                still arrive (a crash
                                                does not retract them)
``("recover", ((node, t), ...))``               ``node`` — which must
                                                crash strictly earlier
                                                in the same spec —
                                                revives at ``t``: its
                                                traffic flows again
                                                and the engine invokes
                                                the node's ``rejoin``
                                                hook (RCV re-announces
                                                a pending RM and
                                                resyncs its SI table;
                                                see docs/faults.md,
                                                "Recovery")
==============================================  =======================

composable as one tuple, e.g. ``(("drop", 0.02), ("reorder", 10.0))``.
At most one tuple per kind; no-op intensities (``p == 0``, empty
schedules) normalize away entirely, so a degenerate fault spec is
*the same cell* as a clean one — same cache key, same results.

Determinism: drop/dup/reorder draw from their own named stream
(``net/faults`` in the :class:`~repro.sim.rng.RngRegistry`), so a
fault spec never perturbs the delay or workload draws, clean runs
never touch the stream, and replaying a (spec, seed) cell reproduces
the exact fault pattern bit for bit.  Partition and crash schedules
are pure data — no randomness at all.

:class:`FaultPlan` is the validated, stateless description (safe to
share across seeds) and the only code that decides whether an outage
loses a send (:meth:`FaultPlan.node_down`, :meth:`FaultPlan.pair_cut`,
asked at send time): the :class:`~repro.net.network.Network` asks it
for a bare run, the :class:`~repro.net.retx.ReliableChannel` for each
attempt of a retx run.  A send is lost when its source or destination
is down or the pair is cut at that instant; a packet already on the
wire still arrives.  Two windows that cut a common pair over
overlapping time are refused: whether the pair heals at the first heal
or the last is the spec's to say.  :class:`FaultyChannel` is the
per-run channel wrapper layering drop/dup/reorder over any inner
discipline.  The engine schedules one kind of event from a plan: a
recover instant, which calls the node's ``rejoin`` hook.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Tuple

from repro.net.channels import ChannelDiscipline
from repro.net.delay import DelayModel

__all__ = ["FAULT_KINDS", "FaultPlan", "FaultyChannel", "normalize_faults"]

#: canonical ordering of fault kinds inside a normalized spec
FAULT_KINDS: Tuple[str, ...] = (
    "drop",
    "dup",
    "reorder",
    "partition",
    "crash",
    "recover",
)


def _probability(kind: str, params) -> float:
    if len(params) != 1:
        raise ValueError(f"fault ({kind!r}, ...) wants exactly one probability")
    p = float(params[0])
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"fault {kind!r} probability {p!r} not in [0, 1]")
    return p


def _node(kind: str, value, n_nodes: Optional[int]) -> int:
    """``value`` as a node id: a whole number in ``0..N-1`` — never
    truncated to one, which would fault a node nobody named."""
    try:
        node = int(value)
    except (OverflowError, ValueError):  # inf, nan, text
        node = None
    if node != value:
        raise ValueError(f"{kind} names node {value!r}, not a whole number")
    if node < 0 or (n_nodes is not None and node >= n_nodes):
        raise ValueError(
            f"{kind} names node {node}, outside the scenario's "
            f"0..{'N-1' if n_nodes is None else n_nodes - 1} range"
        )
    return node


def _group(kind: str, nodes, n_nodes: Optional[int]) -> Tuple[int, ...]:
    try:
        group = tuple(sorted(_node(kind, v, n_nodes) for v in nodes))
    except TypeError:
        raise ValueError(f"{kind} group {nodes!r} is not a sequence of node ids")
    if not group:
        raise ValueError(f"{kind} groups must be non-empty")
    if len(set(group)) != len(group):
        raise ValueError(f"{kind} group {group!r} repeats a node")
    return group


def _partition_schedule(params, n_nodes: Optional[int]) -> Tuple:
    if len(params) != 1:
        raise ValueError(
            'fault ("partition", windows) wants exactly one window list'
        )
    windows = []
    for window in params[0]:
        window = tuple(window)
        if len(window) == 3:
            # (t_cut, t_heal, K): the first K nodes vs the rest — the
            # one shape that means the same split at every N of a sweep
            k = window[2]
            if not (n_nodes and k in range(1, n_nodes)):
                raise ValueError(
                    f"partition K={k!r} does not split N={n_nodes} "
                    "(want a whole number, 0 < K < N)"
                )
            window = (*window[:2], range(int(k)), range(int(k), n_nodes))
        if len(window) != 4:
            raise ValueError(
                f"partition window {window!r}: want (t_cut, t_heal, "
                "group_a, group_b) or (t_cut, t_heal, K)"
            )
        t_cut, t_heal = float(window[0]), float(window[1])
        if not (0.0 <= t_cut < t_heal < math.inf):
            raise ValueError(
                f"partition window {window!r}: want 0 <= t_cut < t_heal, "
                "both finite"
            )
        group_a = _group("partition", window[2], n_nodes)
        group_b = _group("partition", window[3], n_nodes)
        if set(group_a) & set(group_b):
            raise ValueError(
                f"partition groups {group_a!r} and {group_b!r} overlap"
            )
        windows.append((t_cut, t_heal, group_a, group_b))
    windows.sort()
    _check_disjoint_cuts(windows)
    return tuple(windows)


def _check_disjoint_cuts(windows) -> None:
    """Refuse two windows that cut a common pair over overlapping
    time: does the pair heal at the first heal or stay cut until the
    last?  The spec must say.  Windows that only touch (one heals
    exactly when the next cuts) are fine."""

    def meet(x, y) -> bool:
        return not set(x).isdisjoint(y)

    for i, first in enumerate(windows):
        _, t_heal, a1, b1 = first
        for second in windows[i + 1:]:
            t_cut, _, a2, b2 = second
            if t_cut >= t_heal:
                break  # sorted by t_cut: no later window overlaps either
            if (meet(a1, a2) and meet(b1, b2)) or (
                meet(a1, b2) and meet(b1, a2)
            ):
                raise ValueError(
                    f"partition windows {first!r} and {second!r} cut a "
                    "common pair over overlapping time; merge them or "
                    "make them disjoint"
                )


def _crash_schedule(kind: str, params, n_nodes: Optional[int]) -> Tuple:
    if len(params) != 1:
        raise ValueError(
            f'fault ("{kind}", entries) wants exactly one entry list'
        )
    entries = []
    seen = set()
    for entry in params[0]:
        entry = tuple(entry)
        if len(entry) != 2:
            raise ValueError(f"{kind} entry {entry!r}: want (node, t)")
        node, t = _node(kind, entry[0], n_nodes), float(entry[1])
        if not (0.0 <= t < math.inf):
            raise ValueError(
                f"{kind} entry {entry!r}: time must be finite and >= 0"
            )
        if node in seen:
            raise ValueError(f"{kind} schedule names node {node} twice")
        seen.add(node)
        entries.append((node, t))
    return tuple(sorted(entries, key=lambda e: (e[1], e[0])))


def _check_recover_entries(by_kind: dict) -> None:
    """A recover entry only makes sense against an earlier crash of
    the same node — anything else is a spec typo, not a scenario."""
    recover = by_kind.get("recover")
    if recover is None:
        return
    crash_at = dict(by_kind["crash"][1]) if "crash" in by_kind else {}
    for node, t in recover[1]:
        crashed = crash_at.get(node)
        if crashed is None:
            raise ValueError(
                f"recover names node {node}, which the spec never "
                "crashes — compose a crash entry for it"
            )
        if not (crashed < t):
            raise ValueError(
                f"recover entry ({node}, {t}): node {node} crashes at "
                f"{crashed}, so it must recover strictly later"
            )


def normalize_faults(faults, *, n_nodes: Optional[int] = None) -> Tuple:
    """Canonical form of a fault spec, or :class:`ValueError`.

    Kinds are validated and ordered per :data:`FAULT_KINDS`, at most
    one tuple per kind, numbers coerced to float/int, schedules
    sorted, and **no-op faults removed** (zero probabilities, zero
    reorder windows, empty schedules) — a spec that injects nothing
    IS the clean cell and must share its identity.  With ``n_nodes``,
    partition groups and crash targets are range-checked.
    """
    by_kind = {}
    for fault in tuple(faults):
        fault = tuple(fault)
        if not fault or fault[0] not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {fault[:1]!r} "
                f"(expected one of {list(FAULT_KINDS)})"
            )
        kind, params = fault[0], fault[1:]
        if kind in by_kind:
            raise ValueError(
                f"fault kind {kind!r} appears twice; compose one tuple "
                "per kind"
            )
        if kind in ("drop", "dup"):
            value = _probability(kind, params)
            if value == 0.0:
                continue
            by_kind[kind] = (kind, value)
        elif kind == "reorder":
            if len(params) != 1:
                raise ValueError('fault ("reorder", window) wants one window')
            window = float(params[0])
            if not (0.0 <= window < math.inf):
                raise ValueError(
                    f"reorder window {window!r} must be finite and >= 0"
                )
            if window == 0.0:
                continue
            by_kind[kind] = (kind, window)
        elif kind == "partition":
            schedule = _partition_schedule(params, n_nodes)
            if not schedule:
                continue
            by_kind[kind] = (kind, schedule)
        else:  # crash / recover
            schedule = _crash_schedule(kind, params, n_nodes)
            if not schedule:
                continue
            by_kind[kind] = (kind, schedule)
    _check_recover_entries(by_kind)
    return tuple(by_kind[kind] for kind in FAULT_KINDS if kind in by_kind)


class FaultPlan:
    """A validated fault spec, unpacked for the run-time layers.

    Stateless — probabilities and schedules only, no RNG and no
    counters — so one plan is safely shared across every seed of a
    cell family.
    """

    __slots__ = (
        "spec",
        "drop",
        "dup",
        "reorder",
        "partitions",
        "crashes",
        "recovers",
    )

    def __init__(self, faults, *, n_nodes: Optional[int] = None) -> None:
        self.spec = normalize_faults(faults, n_nodes=n_nodes)
        self.drop = 0.0
        self.dup = 0.0
        self.reorder = 0.0
        self.partitions: Tuple = ()
        self.crashes: Tuple = ()
        self.recovers: Tuple = ()
        for kind, value in self.spec:
            if kind == "partition":
                self.partitions = value
            elif kind == "crash":
                self.crashes = value
            elif kind == "recover":
                self.recovers = value
            else:
                setattr(self, kind, value)

    @classmethod
    def from_spec(cls, faults, *, n_nodes: Optional[int] = None) -> "Optional[FaultPlan]":
        """A plan for ``faults``, or None when it normalizes to clean."""
        plan = cls(faults, n_nodes=n_nodes)
        return plan if plan.spec else None

    @property
    def channel_faults(self) -> bool:
        """True when message-level faults need a :class:`FaultyChannel`."""
        return bool(self.drop or self.dup or self.reorder)

    @property
    def scheduled_faults(self) -> bool:
        """True when the plan schedules outages: partition windows or
        crashes (a recover always comes with its crash)."""
        return bool(self.partitions or self.crashes)

    @property
    def last_change(self) -> float:
        """The plan's latest cut, heal, crash or recover instant (0.0
        when it has none)."""
        return max(
            [w[1] for w in self.partitions]
            + [t for _, t in self.crashes + self.recovers],
            default=0.0,
        )

    # ------------------------------------------------------------------
    # outage queries: the one answer to "does an outage lose this
    # send?", asked by the Network (bare runs) or by the
    # ReliableChannel (retx runs, attempt by attempt)
    # ------------------------------------------------------------------
    def node_down(self, node: int, t: float) -> bool:
        """Whether ``node`` is crashed (and not yet recovered) at ``t``."""
        for crashed, t_crash in self.crashes:
            if crashed == node:
                if t < t_crash:
                    return False
                for revived, t_rec in self.recovers:
                    if revived == node and t >= t_rec:
                        return False
                return True
        return False

    def pair_cut(self, src: int, dst: int, t: float) -> bool:
        """Whether a partition window severs ``src``/``dst`` at ``t``."""
        for t_cut, t_heal, group_a, group_b in self.partitions:
            if t_cut <= t < t_heal:
                if (src in group_a and dst in group_b) or (
                    src in group_b and dst in group_a
                ):
                    return True
        return False

    def __repr__(self) -> str:
        return f"FaultPlan({self.spec!r})"


class FaultyChannel(ChannelDiscipline):
    """Layers seeded drop/dup/reorder over an inner discipline.

    Message-level faults are expressed through
    :meth:`delivery_times` — zero timestamps for a dropped message,
    two for a duplicated one — which the
    :class:`~repro.net.network.Network` delivers one event each.  The
    fault stream (``rng``) is distinct from the delay stream passed
    per call, so the inner discipline's draws are exactly those of a
    fault-free run over the same delay model.

    Per-run mutable state (the fault counters) lives here, not in the
    :class:`FaultPlan`, so plans stay shareable across runs.
    """

    def __init__(
        self,
        inner: ChannelDiscipline,
        plan: FaultPlan,
        rng: random.Random,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.rng = rng
        #: messages swallowed by the drop fault this run
        self.dropped = 0
        #: extra copies injected by the dup fault this run
        self.duplicated = 0

    def delivery_times(
        self,
        src: int,
        dst: int,
        send_time: float,
        delay_model: DelayModel,
        rng: random.Random,
    ) -> Tuple[float, ...]:
        plan = self.plan
        faults = self.rng
        if plan.drop and faults.random() < plan.drop:
            self.dropped += 1
            return ()
        inner = self.inner.delivery_times
        times = inner(src, dst, send_time, delay_model, rng)
        if plan.dup and faults.random() < plan.dup:
            self.duplicated += 1
            times += inner(src, dst, send_time, delay_model, rng)
        if plan.reorder:
            times = tuple(t + faults.uniform(0.0, plan.reorder) for t in times)
        return times

    def __repr__(self) -> str:
        return f"FaultyChannel({self.inner!r}, {self.plan!r})"
