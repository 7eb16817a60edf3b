"""One explorable system configuration and its transition function.

A :class:`World` is the model checker's unit of state: the live node
objects (driven through the exact production code paths —
``request_cs`` / ``release_cs`` / ``deliver``) plus the multiset of
in-flight message envelopes.  Where the simulator resolves "which
message arrives next" with seeded randomness, the world exposes every
resolution as an explicit :meth:`World.enabled_actions` entry, and
every *internal* random draw (RCV's forwarding choice) as a scripted
:class:`ChoiceSource` decision the checker enumerates exhaustively.

Actions are plain tuples, deterministic to order and JSON-able::

    ("request", node)   ("release", node)
    ("deliver", uid)    ("drop", uid)    ("dup", uid)

``uid`` is the envelope's send-order number; uid assignment follows
execution order exactly, which is what makes exported counterexample
schedules replayable.

Cloning is copy-on-write at node granularity.  A transition mutates
exactly one node — its *owner* (:meth:`World.owner`) — so a cloned
world shares every node, the per-node fingerprints and the one
:class:`ModelEnv` with the world it came from, copies a node only when
a transition is about to run on it, and re-encodes only that node's
fingerprint afterwards.  ``oracle=True`` switches to ``copy.deepcopy``
of the whole world and re-encodes every node in every state, so tests
can assert the fast path explores the identical state space.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

from repro.mutex.base import Env, NodeState
from repro.net.message import Message
from repro.verify.errors import VerifyError
from repro.verify.fingerprint import fingerprint_message

__all__ = [
    "ActionOutcome",
    "ChoiceSource",
    "Envelope",
    "ModelEnv",
    "VerifyError",
    "World",
    "describe_action",
]


class ChoiceSource:
    """Duck-types the one ``random.Random`` method the protocol uses
    (``choice``) while recording every decision point.

    During a transition the checker replays a *script* — the indices
    to pick at each successive call — and past the script's end picks
    index 0, recording the branch factor.  The recorded
    ``taken``/``factors`` lists let the checker enumerate every
    alternative resolution of the same action (odometer style),
    turning hidden RNG draws into explicit search branches.
    """

    __slots__ = ("script", "taken", "factors")

    def __init__(self) -> None:
        self.script: Tuple[int, ...] = ()
        self.taken: List[int] = []
        self.factors: List[int] = []

    def begin(self, script: Tuple[int, ...]) -> None:
        self.script = tuple(script)
        self.taken = []
        self.factors = []

    def choice(self, seq):
        if not seq:
            raise IndexError("Cannot choose from an empty sequence")
        pos = len(self.taken)
        if pos < len(self.script):
            pick = self.script[pos]
            if not 0 <= pick < len(seq):
                raise VerifyError(
                    f"choice script index {pick} out of range for a "
                    f"{len(seq)}-way decision at position {pos} — the "
                    "schedule does not match this model"
                )
        else:
            pick = 0
        self.taken.append(pick)
        self.factors.append(len(seq))
        return seq[pick]


class ModelEnv(Env):
    """The checker's :class:`~repro.mutex.base.Env`: time frozen at 0,
    sends buffered for the world to enqueue, timers refused (a timer
    would smuggle a scheduling decision past the explicit action set),
    and a single shared :class:`ChoiceSource` behind every named rng
    stream.  One instance serves a world and every world cloned from
    it: it holds nothing between transitions (``sent`` is drained and
    ``choices`` re-armed by each :meth:`World.execute`)."""

    def __init__(self) -> None:
        self.sent: List[Tuple[int, int, Message]] = []
        self.choices = ChoiceSource()

    def now(self) -> float:
        return 0.0

    def send(self, src: int, dst: int, message: Message) -> None:
        self.sent.append((src, dst, message))

    def schedule(self, delay, callback):
        raise VerifyError(
            "timers are not modeled by the checker (disable rm_timeout "
            "and any other scheduled behavior for verification)"
        )

    def rng(self, name: str):
        return self.choices


class Envelope:
    """An in-flight message.  Immutable once created; shared freely
    between cloned worlds (delivery never mutates the payload — the
    Exchange merge only flips copy-on-write ``shared`` flags on the
    snapshot's rows, which is monotone and order-safe) — which is why
    the payload's fingerprint is taken once, here."""

    __slots__ = ("uid", "src", "dst", "msg", "fp")

    def __init__(self, uid: int, src: int, dst: int, msg: Message) -> None:
        self.uid = uid
        self.src = src
        self.dst = dst
        self.msg = msg
        self.fp = fingerprint_message(msg)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Envelope({self.uid}: {self.src}->{self.dst} {self.msg!r})"


class ActionOutcome:
    """What one :meth:`World.execute` did: the rng decisions it made
    (``choices``/``factors``, for successor enumeration) and the
    protocol exception it surfaced, if any (``error`` — a *finding*,
    not a checker failure)."""

    __slots__ = ("choices", "factors", "error")

    def __init__(self, choices, factors, error) -> None:
        self.choices = choices
        self.factors = factors
        self.error = error


def describe_action(world: "World", action: Tuple) -> str:
    """Human note for schedules: ``deliver RM#3 0->2``."""
    op = action[0]
    if op in ("request", "release"):
        return f"{op} node {action[1]}"
    env = world.inflight.get(action[1])
    if env is None:
        return f"{op} uid {action[1]}"
    return f"{op} {env.msg.describe()} {env.src}->{env.dst}"


class World:
    """One system configuration under exploration.

    Parameters
    ----------
    model:
        An :class:`~repro.verify.models.AlgorithmModel`; owns node
        construction, cloning, fingerprinting, and algorithm-specific
        invariant checks.
    requests:
        CS entries each node performs before going quiet (the
        workload: every node requests, enters, releases this many
        times, in every possible interleaving).
    fifo:
        When True, only the oldest message of each ``(src, dst)``
        channel is deliverable (FIFO links); default models the
        paper's non-FIFO channels — any in-flight message may arrive.
    drop_budget / dup_budget:
        PR-7 fault vocabulary: total messages the adversary may drop /
        duplicate along one path.
    retx:
        Model the reliable (ack/retransmit) channel of
        :mod:`repro.net.retx`: a ``drop`` still spends the adversary's
        budget but the transport *retransmits* — the message re-enters
        the in-flight set as a fresh (newest) uid, so a drop becomes a
        delay/reorder rather than a loss, and the stuck check stays
        armed under nonzero drop budgets.  A ``dup`` spends its budget
        but enqueues nothing: receive-side sequence numbers suppress
        the duplicate at the transport, before the protocol sees it.
    retx_broken:
        The planted transport mutant (requires ``retx``): the
        retransmit timer never fires, so drops silently delete again
        while the stuck check stays armed — the checker must catch the
        resulting stuck state.
    oracle:
        Clone via ``copy.deepcopy`` and fingerprint every node afresh
        instead of copying and re-encoding the owner only (test-only
        cross-check of both shortcuts).
    """

    def __init__(
        self,
        model,
        *,
        requests: int = 1,
        fifo: bool = False,
        drop_budget: int = 0,
        dup_budget: int = 0,
        retx: bool = False,
        retx_broken: bool = False,
        oracle: bool = False,
    ) -> None:
        if retx_broken and not retx:
            raise VerifyError("retx_broken models a broken retransmit "
                              "timer and requires retx=True")
        self.model = model
        self.fifo = fifo
        self.oracle = oracle
        self.env = ModelEnv()
        self.nodes = model.make_nodes(self.env)
        self.node_fps = [model.fingerprint_node(n) for n in self.nodes]
        #: indices of the nodes no other world references
        self._owned = set(range(model.n))
        self.requests_left = [int(requests)] * model.n
        self.inflight: Dict[int, Envelope] = {}
        self.drop_left = int(drop_budget)
        self.dup_left = int(dup_budget)
        self.retx = bool(retx)
        self.retx_broken = bool(retx_broken)
        self._next_uid = 1

    # ------------------------------------------------------------------
    # transition structure
    # ------------------------------------------------------------------
    def deliverable_uids(self) -> List[int]:
        """Envelopes the adversary may act on, in deterministic order.

        Non-FIFO: every in-flight uid.  FIFO: the oldest uid of each
        ``(src, dst)`` channel (uids are assigned in send order, so
        per-channel min-uid is the channel head).
        """
        if not self.fifo:
            return sorted(self.inflight)
        heads: Dict[Tuple[int, int], int] = {}
        for uid in sorted(self.inflight):
            env = self.inflight[uid]
            heads.setdefault((env.src, env.dst), uid)
        return sorted(heads.values())

    def enabled_actions(self) -> List[Tuple]:
        acts: List[Tuple] = []
        for i, node in enumerate(self.nodes):
            if node.state is NodeState.IDLE and self.requests_left[i] > 0:
                acts.append(("request", i))
        for i, node in enumerate(self.nodes):
            if node.state is NodeState.IN_CS:
                acts.append(("release", i))
        deliverable = self.deliverable_uids()
        for uid in deliverable:
            acts.append(("deliver", uid))
        if self.drop_left > 0:
            for uid in deliverable:
                acts.append(("drop", uid))
        if self.dup_left > 0:
            for uid in deliverable:
                acts.append(("dup", uid))
        return acts

    def owner(self, action: Tuple) -> Optional[int]:
        """The one node ``action`` runs on: the requester/releaser or
        the delivery destination.  ``None`` for drop/dup, which touch
        no node but consume the shared adversary budgets."""
        op = action[0]
        if op in ("request", "release"):
            return action[1]
        if op == "deliver":
            envelope = self.inflight.get(action[1])
            return envelope.dst if envelope is not None else None
        return None

    def _own(self, i: int):
        """Node ``i``, safe to mutate: copied first if another world
        still references it."""
        if i not in self._owned:
            self.nodes[i] = self.model.clone_node(self.nodes[i])
            self._owned.add(i)
        return self.nodes[i]

    def execute(self, action: Tuple, script: Tuple[int, ...] = ()) -> ActionOutcome:
        """Apply ``action`` in place, resolving rng draws per ``script``.

        Protocol-level exceptions are captured in the outcome (they
        are findings); :class:`VerifyError` propagates (the checker
        itself is broken or misconfigured).  Messages the transition
        emitted are enqueued afterwards either way, so a violating
        state is still fully formed for reporting.
        """
        env = self.env
        env.choices.begin(script)
        error: Optional[BaseException] = None
        op = action[0]
        owner = self.owner(action)
        try:
            if op == "request":
                i = action[1]
                if self.requests_left[i] <= 0:
                    raise VerifyError(f"node {i} has no requests left")
                self.requests_left[i] -= 1
                self._own(i).request_cs()
            elif op == "release":
                self._own(action[1]).release_cs()
            elif op == "deliver":
                envelope = self.inflight.pop(action[1], None)
                if envelope is None:
                    raise VerifyError(f"uid {action[1]} is not in flight")
                self._own(envelope.dst).deliver(envelope.src, envelope.msg)
            elif op == "drop":
                if self.drop_left <= 0 or action[1] not in self.inflight:
                    raise VerifyError(f"cannot drop uid {action[1]}")
                envelope = self.inflight.pop(action[1])
                self.drop_left -= 1
                if self.retx and not self.retx_broken:
                    # Reliable channel: the sender's retransmit timer
                    # re-sends the lost copy, which re-enters the
                    # network as the newest message — a drop becomes a
                    # delay/reorder, never a loss.  (retx_broken is
                    # the skip-retransmit-on-timeout mutant: the plain
                    # delete above stands.)
                    env.sent.append(
                        (envelope.src, envelope.dst, envelope.msg)
                    )
            elif op == "dup":
                envelope = self.inflight.get(action[1])
                if self.dup_left <= 0 or envelope is None:
                    raise VerifyError(f"cannot duplicate uid {action[1]}")
                self.dup_left -= 1
                if not self.retx:
                    env.sent.append(
                        (envelope.src, envelope.dst, envelope.msg)
                    )
                # else: the reliable channel's receive-side dedupe
                # suppresses the duplicate before the protocol sees
                # it — the budget is spent, nothing is enqueued.
            else:
                raise VerifyError(f"unknown action {action!r}")
        except VerifyError:
            raise
        except BaseException as exc:
            error = exc
        if owner is not None:
            self.node_fps[owner] = self.model.fingerprint_node(
                self.nodes[owner]
            )
        for src, dst, msg in env.sent:
            uid = self._next_uid
            self._next_uid += 1
            self.inflight[uid] = Envelope(uid, src, dst, msg)
        env.sent.clear()
        return ActionOutcome(
            tuple(env.choices.taken),
            tuple(env.choices.factors),
            error,
        )

    # ------------------------------------------------------------------
    # cloning
    # ------------------------------------------------------------------
    def clone(self) -> "World":
        if self.oracle:
            # Deepcopy everything reachable except the (stateless,
            # shared) model; node.env and self.env converge on one
            # copy through the memo.
            memo = {id(self.model): self.model}
            return copy.deepcopy(self, memo)
        new = World.__new__(World)
        new.__dict__.update(self.__dict__)
        # Every node is now referenced twice: whichever world runs a
        # transition on one copies it first (_own).
        new._owned, self._owned = set(), set()
        new.nodes = list(self.nodes)
        new.node_fps = list(self.node_fps)
        new.requests_left = list(self.requests_left)
        # Envelopes (and the messages inside) are immutable — share.
        new.inflight = dict(self.inflight)
        return new

    # ------------------------------------------------------------------
    # canonical identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> Tuple:
        """Hashable identity of this configuration, comparable among
        worlds built on one model instance (node fingerprints are that
        model's numbering of the node states it has seen — see
        :meth:`AlgorithmModel.fingerprint_node`).

        Node fingerprints are positional (index = node id).  The
        in-flight set is a sorted ``(src, dst, payload)`` multiset
        under non-FIFO semantics — envelope uids are deliberately
        excluded, since any uid relabeling preserving send order is
        behaviorally invisible.  Under FIFO, per-channel *sequences*
        (in uid order) are kept instead: equal fingerprints must imply
        equal channel heads.
        """
        if self.oracle:
            node_fps = tuple(
                self.model.fingerprint_node(n) for n in self.nodes
            )
        else:
            node_fps = tuple(self.node_fps)
        if self.fifo:
            channels: Dict[Tuple[int, int], List[Tuple]] = {}
            for uid in sorted(self.inflight):
                env = self.inflight[uid]
                channels.setdefault((env.src, env.dst), []).append(env.fp)
            msgs = tuple(
                sorted((chan, tuple(fps)) for chan, fps in channels.items())
            )
        else:
            msgs = tuple(
                sorted(
                    (env.src, env.dst, env.fp)
                    for env in self.inflight.values()
                )
            )
        return (
            node_fps,
            msgs,
            tuple(self.requests_left),
            self.drop_left,
            self.dup_left,
        )

    # ------------------------------------------------------------------
    # queries for the per-state checks
    # ------------------------------------------------------------------
    def cs_holders(self) -> List[int]:
        return [
            i
            for i, n in enumerate(self.nodes)
            if n.state is NodeState.IN_CS
        ]

    def requesting(self) -> List[int]:
        return [
            i
            for i, n in enumerate(self.nodes)
            if n.state is NodeState.REQUESTING
        ]
