"""Algorithm adapters: what the checker needs to know per protocol.

An :class:`AlgorithmModel` packages node construction, fast cloning,
canonical fingerprinting, and algorithm-specific invariant checks for
one algorithm.  Three production adapters (RCV, Ricart–Agrawala,
Maekawa) plus one toy (:class:`EchoModel`) used to exercise symmetry
reduction.

Symmetry over node ids is **opt-in and off for every production
algorithm**: RCV's Order rule, Ricart–Agrawala's ``(ts, id)``
priority, and Maekawa's arbiter priorities all break ties on concrete
node ids, so states related by an id permutation are *not*
behaviorally equivalent — folding them would be unsound.  A model
declares itself safe via :attr:`AlgorithmModel.id_equivariant` and
implements :meth:`AlgorithmModel.canonical`; only the fully symmetric
Echo protocol does.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Optional, Set, Tuple

from repro.baselines.maekawa import MaekawaNode, build_quorums
from repro.baselines.quorum_base import QuorumMutexNode, _Grant
from repro.baselines.ricart_agrawala import RicartAgrawalaNode
from repro.core.config import RCVConfig
from repro.core.exchange import ExchangeStats
from repro.core.node import RCVNode
from repro.core.verification import check_system
from repro.mutex.base import Env, Hooks, MutexNode, NodeState
from repro.net.message import Message
from repro.verify.errors import VerifyError
from repro.verify.fingerprint import (
    QUORUM_NODE_CANON,
    RA_NODE_CANON,
    RCV_NODE_CANON,
    assert_canon_complete,
    fingerprint_from_table,
)

__all__ = [
    "ALGORITHMS",
    "AlgorithmModel",
    "EchoModel",
    "MaekawaModel",
    "RCVModel",
    "RicartAgrawalaModel",
    "make_model",
]


class AlgorithmModel:
    """Checker-facing adapter for one algorithm.

    Stateless with respect to exploration: one model instance serves
    every world of a run (worlds own the mutable node objects)."""

    name = "abstract"
    #: whether overlapping CS occupancy is a violation for this model
    mutual_exclusion = True
    #: whether states related by a node-id permutation are equivalent
    #: (required for symmetry reduction; False for every production
    #: algorithm — see the module docstring)
    id_equivariant = False
    #: whether :meth:`check_invariants` performs real work
    has_invariants = False

    def __init__(self, n: int) -> None:
        if n < 1:
            raise VerifyError("n must be >= 1")
        self.n = n
        self.hooks = Hooks()  # no subscribers; shared across worlds
        #: name of the planted bug overlaying the node class, if any
        #: (set by :func:`make_model`; recorded in schedules so a
        #: counterexample replays against the same mutated protocol)
        self.planted: Optional[str] = None

    # -- construction / cloning ----------------------------------------
    def make_nodes(self, env: Env) -> List[MutexNode]:
        raise NotImplementedError

    def clone_node(self, node: MutexNode, env: Env) -> MutexNode:
        raise NotImplementedError

    def _clone_base(self, node: MutexNode, env: Env) -> MutexNode:
        new = type(node).__new__(type(node))
        new.actor_id = node.actor_id
        new.node_id = node.node_id
        new.n_nodes = node.n_nodes
        new.env = env
        new.hooks = node.hooks
        new.state = node.state
        new.request_time = node.request_time
        new.cs_count = node.cs_count
        return new

    # -- identity --------------------------------------------------------
    def fingerprint_node(self, node: MutexNode) -> Tuple:
        raise NotImplementedError

    def canonical(self, fp: Tuple) -> Tuple:
        """Symmetry representative of a world fingerprint; identity
        unless the model is id-equivariant."""
        return fp

    # -- invariants ------------------------------------------------------
    def check_invariants(self, nodes: List[MutexNode]) -> None:
        """Algorithm-specific whole-system invariants; raise
        ``ProtocolInvariantError`` on violation."""

    def describe(self) -> Dict[str, object]:
        return {"algo": self.name, "n": self.n}


# ----------------------------------------------------------------------
# RCV
# ----------------------------------------------------------------------
class RCVModel(AlgorithmModel):
    """The paper's protocol, with its Lemma checks promoted to
    per-state invariants.  ``node_cls`` admits planted-bug subclasses
    (:mod:`repro.verify.mutations`)."""

    name = "rcv"
    has_invariants = True

    def __init__(
        self,
        n: int,
        *,
        rule: str = "strict",
        forwarding: str = "random",
        exchange_on_im: bool = True,
        on_inconsistency: str = "raise",
        node_cls: Optional[type] = None,
    ) -> None:
        super().__init__(n)
        self.config = RCVConfig(
            rule=rule,
            forwarding=forwarding,
            exchange_on_im=exchange_on_im,
            on_inconsistency=on_inconsistency,
            rm_timeout=None,  # timers are outside the checker's model
        )
        self.node_cls = node_cls or RCVNode

    def make_nodes(self, env: Env) -> List[MutexNode]:
        nodes = [
            self.node_cls(i, self.n, env, self.hooks, self.config)
            for i in range(self.n)
        ]
        assert_canon_complete(nodes[0], "RCV_NODE")
        assert_canon_complete(nodes[0].si, "SYSTEMINFO")
        return nodes

    def clone_node(self, node: RCVNode, env: Env) -> RCVNode:
        new = self._clone_base(node, env)
        new.config = node.config
        # snapshot() is a faithful semantic copy (NONL/rows/row_ts/
        # done/_max_ts) with copy-on-write row sharing — exactly the
        # canon attributes, at O(N) pointer cost per clone.
        new.si = node.si.snapshot()
        new.policy = node.policy
        new.exchange_stats = ExchangeStats()
        new.current_tup = node.current_tup
        new.next_tup = node.next_tup
        new._parked = [
            type(p)(p.home, p.tup, p.hops) for p in node._parked
        ]
        new._recovery_timer = None
        new._fwd_rng = None  # re-bound lazily to the new world's env
        new._excluded = node._excluded
        new.counters = dict(node.counters)
        return new

    def fingerprint_node(self, node: RCVNode) -> Tuple:
        return fingerprint_from_table(node, RCV_NODE_CANON)

    def check_invariants(self, nodes: List[MutexNode]) -> None:
        check_system(nodes)

    def describe(self) -> Dict[str, object]:
        out = super().describe()
        out.update(
            rule=self.config.rule,
            forwarding=self.config.forwarding,
            exchange_on_im=self.config.exchange_on_im,
            on_inconsistency=self.config.on_inconsistency,
        )
        if self.planted:
            out["planted"] = self.planted
        elif self.node_cls is not RCVNode:
            out["node_cls"] = self.node_cls.__name__
        return out


# ----------------------------------------------------------------------
# Ricart–Agrawala
# ----------------------------------------------------------------------
class RicartAgrawalaModel(AlgorithmModel):
    name = "ricart_agrawala"

    def make_nodes(self, env: Env) -> List[MutexNode]:
        nodes = [
            RicartAgrawalaNode(i, self.n, env, self.hooks)
            for i in range(self.n)
        ]
        assert_canon_complete(nodes[0], "RA_NODE")
        return nodes

    def clone_node(
        self, node: RicartAgrawalaNode, env: Env
    ) -> RicartAgrawalaNode:
        new = self._clone_base(node, env)
        new.clock = node.clock
        new.req_ts = node.req_ts
        new._awaiting = set(node._awaiting)
        new._deferred = set(node._deferred)
        return new

    def fingerprint_node(self, node: RicartAgrawalaNode) -> Tuple:
        return fingerprint_from_table(node, RA_NODE_CANON)


# ----------------------------------------------------------------------
# Maekawa
# ----------------------------------------------------------------------
class MaekawaModel(AlgorithmModel):
    name = "maekawa"

    def __init__(self, n: int, *, quorum_system: str = "grid") -> None:
        super().__init__(n)
        self.quorum_system = quorum_system
        self.quorums = build_quorums(n, quorum_system)

    def make_nodes(self, env: Env) -> List[MutexNode]:
        nodes = [
            MaekawaNode(
                i, self.n, env, self.hooks, quorum_system=self.quorum_system
            )
            for i in range(self.n)
        ]
        assert_canon_complete(nodes[0], "QUORUM_NODE")
        return nodes

    def clone_node(self, node: QuorumMutexNode, env: Env) -> QuorumMutexNode:
        new = self._clone_base(node, env)
        new.quorum = node.quorum
        new.clock = node.clock
        new.seq = node.seq
        new._voted_for_me = set(node._voted_for_me)
        new._saw_failed = node._saw_failed
        new._held_inquiries = list(node._held_inquiries)
        new._relinquished = set(node._relinquished)
        lock = node._lock
        if lock is None:
            new._lock = None
        else:
            grant = _Grant(lock.priority, lock.origin, lock.seq, lock.no)
            grant.inquired = lock.inquired
            new._lock = grant
        new._grant_no = node._grant_no
        new._waiting = list(node._waiting)
        new._failed_notified = set(node._failed_notified)
        return new

    def fingerprint_node(self, node: QuorumMutexNode) -> Tuple:
        return fingerprint_from_table(node, QUORUM_NODE_CANON)

    def describe(self) -> Dict[str, object]:
        out = super().describe()
        out["quorum_system"] = self.quorum_system
        return out


# ----------------------------------------------------------------------
# Echo — the symmetric toy that exercises symmetry reduction
# ----------------------------------------------------------------------
class EchoPing(Message):
    kind = "PING"
    __slots__ = ()


class EchoPong(Message):
    kind = "PONG"
    __slots__ = ()


class EchoNode(MutexNode):
    """Ping-all / await-all-pongs.  No arbitration whatsoever — any
    number of nodes may be "in the CS" at once — which is exactly why
    it is *id-equivariant*: no code path compares node ids, so
    permuting ids permutes behaviors 1:1."""

    algorithm_name = "echo"

    def __init__(
        self, node_id: int, n_nodes: int, env: Env, hooks: Hooks
    ) -> None:
        super().__init__(node_id, n_nodes, env, hooks)
        self._awaiting: Set[int] = set()

    def _do_request(self) -> None:
        self._awaiting = set(self.peers())
        if not self._awaiting:
            self._grant()
            return
        for j in self.peers():
            self.env.send(self.node_id, j, EchoPing())

    def _do_release(self) -> None:
        pass

    def on_message(self, src: int, message: Message) -> None:
        if isinstance(message, EchoPing):
            self.env.send(self.node_id, src, EchoPong())
        elif isinstance(message, EchoPong):
            if self.state is NodeState.REQUESTING:
                self._awaiting.discard(src)
                if not self._awaiting:
                    self._grant()
        else:
            raise TypeError(f"unexpected message {message!r}")


class EchoModel(AlgorithmModel):
    name = "echo"
    mutual_exclusion = False  # there is nothing exclusive about it
    id_equivariant = True

    def make_nodes(self, env: Env) -> List[MutexNode]:
        return [EchoNode(i, self.n, env, self.hooks) for i in range(self.n)]

    def clone_node(self, node: EchoNode, env: Env) -> EchoNode:
        new = self._clone_base(node, env)
        new._awaiting = set(node._awaiting)
        return new

    def fingerprint_node(self, node: EchoNode) -> Tuple:
        return (node.state.value, tuple(sorted(node._awaiting)))

    def canonical(self, fp: Tuple) -> Tuple:
        """Minimum over all node-id relabelings (sound because the
        protocol is id-equivariant).  Non-FIFO world fingerprints
        only; n! enumeration is fine at the toy sizes this runs at."""
        node_fps, msgs, requests_left, drop_left, dup_left = fp
        best = None
        for perm in permutations(range(self.n)):
            rn = [None] * self.n
            for i in range(self.n):
                state, awaiting = node_fps[i]
                rn[perm[i]] = (
                    state,
                    tuple(sorted(perm[a] for a in awaiting)),
                )
            rl = [0] * self.n
            for i in range(self.n):
                rl[perm[i]] = requests_left[i]
            rmsgs = tuple(
                sorted((perm[src], perm[dst], body) for src, dst, body in msgs)
            )
            cand = (tuple(rn), rmsgs, tuple(rl), drop_left, dup_left)
            if best is None or cand < best:
                best = cand
        return best


# ----------------------------------------------------------------------
ALGORITHMS = {
    "rcv": RCVModel,
    "ricart_agrawala": RicartAgrawalaModel,
    "maekawa": MaekawaModel,
    "echo": EchoModel,
}


def make_model(algo: str, n: int, **opts) -> AlgorithmModel:
    """Build the adapter for ``algo`` (see :data:`ALGORITHMS`).

    ``planted`` (RCV only) overlays a known-bug node class from
    :mod:`repro.verify.mutations`.
    """
    try:
        cls = ALGORITHMS[algo]
    except KeyError:
        raise VerifyError(
            f"unknown algorithm {algo!r}; choices: {sorted(ALGORITHMS)}"
        ) from None
    planted = opts.pop("planted", None)
    if planted:
        if algo != "rcv":
            raise VerifyError("planted bugs are defined for rcv only")
        from repro.verify.mutations import planted_node_class

        opts["node_cls"] = planted_node_class(planted)
    try:
        model = cls(n, **opts)
    except TypeError as exc:
        raise VerifyError(
            f"bad options for algorithm {algo!r}: {exc}"
        ) from None
    model.planted = planted
    return model
