"""Algorithm models: what the checker needs to know per protocol.

There is one model, :class:`AlgorithmModel`, and it knows nothing
about any algorithm: it builds the registry's node class
(:func:`repro.registry.get_algorithm`), and it fingerprints and
clones a node by walking **every attribute the exclusion tables of**
:mod:`repro.verify.fingerprint` **do not name** through that module's
one value table.  Every registry algorithm is therefore checkable as
it stands; one that keeps construction constants or instrumentation
on its nodes adds exclusions, nothing else.  :class:`RCVModel` adds
what only the paper's protocol has — its config, the planted-bug node
classes, and the Lemma checks promoted to per-state invariants.

Symmetry over node ids is **opt-in and off for every production
algorithm**: RCV's Order rule, Ricart–Agrawala's ``(ts, id)``
priority, and Maekawa's arbiter priorities all break ties on concrete
node ids, so states related by an id permutation are *not*
behaviorally equivalent — folding them would be unsound.  A model
declares itself safe via :attr:`AlgorithmModel.id_equivariant` and
implements :meth:`AlgorithmModel.canonical`; only the fully symmetric
toy :class:`EchoModel` does.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.config import RCVConfig
from repro.core.verification import check_system
from repro.mutex.base import Env, Hooks, MutexNode, NodeState
from repro.net.message import Message
from repro.registry import algorithm_names, get_algorithm
from repro.verify.errors import VerifyError
from repro.verify.fingerprint import (
    FingerprintError,
    copy_value,
    node_canon,
)

__all__ = [
    "ALGORITHMS",
    "AlgorithmModel",
    "EchoModel",
    "RCVModel",
    "make_model",
]


class AlgorithmModel:
    """Checker-facing adapter for one algorithm.

    One model instance serves every world of a run: worlds own the
    mutable node objects, the model only numbers the node states it
    has encoded."""

    #: whether overlapping CS occupancy is a violation for this model
    mutual_exclusion = True
    #: whether states related by a node-id permutation are equivalent
    #: (required for symmetry reduction; False for every production
    #: algorithm — see the module docstring)
    id_equivariant = False
    #: whether :meth:`check_invariants` performs real work
    has_invariants = False

    def __init__(
        self, name: str, n: int, node_cls: type, **node_kwargs
    ) -> None:
        if n < 1:
            raise VerifyError("n must be >= 1")
        self.name = name
        self.n = n
        self.node_cls = node_cls
        self.node_kwargs = node_kwargs
        #: what :func:`make_model` was given beyond ``planted``, as a
        #: schedule records it and a replay hands it back
        self.opts: Dict[str, object] = node_kwargs
        self.hooks = Hooks()  # no subscribers; shared across worlds
        #: name of the planted bug overlaying the node class, if any
        #: (set by :func:`make_model`; recorded in schedules so a
        #: counterexample replays against the same mutated protocol)
        self.planted: Optional[str] = None
        # what make_nodes reads off the first node it builds: every
        # attribute name, and the (name, encoder) of each one that is
        # state (fingerprint.node_canon)
        self._attrs: Tuple[str, ...] = ()
        self._canon: List[Tuple[str, Callable]] = []
        #: encoded node state → its number, in order of first sight
        self._ids: Dict[Tuple, int] = {}

    # -- construction / cloning ----------------------------------------
    def make_nodes(self, env: Env) -> List[MutexNode]:
        try:
            nodes = [
                self.node_cls(i, self.n, env, self.hooks, **self.node_kwargs)
                for i in range(self.n)
            ]
        except (TypeError, ValueError) as exc:
            raise VerifyError(
                f"bad options for algorithm {self.name!r}: {exc}"
            ) from None
        self._attrs = tuple(vars(nodes[0]))
        self._canon = node_canon(nodes[0])
        return nodes

    def clone_node(self, node: MutexNode) -> MutexNode:
        """A node no transition on ``node`` can reach: excluded
        attributes by reference, everything else through the value
        table's copy."""
        new = type(node).__new__(type(node))
        state = new.__dict__
        state.update(node.__dict__)
        for name, _ in self._canon:
            state[name] = copy_value(state[name])
        return new

    # -- identity --------------------------------------------------------
    def fingerprint_node(self, node: MutexNode) -> int:
        """Every attribute no exclusion table names, encoded — then
        numbered: a world fingerprint is hashed on every visit and
        compared on every revisit, which a tuple of small ints makes
        cheap and a tree of tuples does not (returning the tree
        instead measured about 20% fewer states/s on maekawa N=3,
        whose node state is the largest — below the hand-written
        model it replaces).  The number is this model's, in order of
        first sight: comparable within one model only."""
        state = node.__dict__
        if tuple(state) != self._attrs:
            raise FingerprintError(
                f"{type(node).__name__} {node.node_id} and node 0 as "
                f"built differ in {sorted(set(state) ^ set(self._attrs))}"
                " — set every attribute in __init__, on every node, so "
                "that the exclusion tables are checked against it"
            )
        fp = tuple([encode(state[name]) for name, encode in self._canon])
        return self._ids.setdefault(fp, len(self._ids))

    def canonical(self, fp: Tuple) -> Tuple:
        """Symmetry representative of a world fingerprint; identity
        unless the model is id-equivariant."""
        return fp

    # -- invariants ------------------------------------------------------
    def check_invariants(self, nodes: List[MutexNode]) -> None:
        """Algorithm-specific whole-system invariants; raise
        ``ProtocolInvariantError`` on violation."""

    def describe(self) -> Dict[str, object]:
        """What a schedule records so that a replay rebuilds this
        model: ``make_model(algo, n, planted=planted, **model_opts)``."""
        out = {"algo": self.name, "n": self.n, "model_opts": self.opts}
        if self.planted:
            out["planted"] = self.planted
        return out


# ----------------------------------------------------------------------
# RCV
# ----------------------------------------------------------------------
class RCVModel(AlgorithmModel):
    """The paper's protocol, with its Lemma checks promoted to
    per-state invariants.  ``node_cls`` admits planted-bug subclasses
    (:mod:`repro.verify.mutations`)."""

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
        self.config = RCVConfig(
            rule=rule,
            forwarding=forwarding,
            exchange_on_im=exchange_on_im,
            on_inconsistency=on_inconsistency,
            rm_timeout=None,  # timers are outside the checker's model
        )
        super().__init__(
            "rcv", n, node_cls or get_algorithm("rcv"), config=self.config
        )
        self.opts = {
            "rule": rule,
            "forwarding": forwarding,
            "exchange_on_im": exchange_on_im,
            "on_inconsistency": on_inconsistency,
        }

    def check_invariants(self, nodes: List[MutexNode]) -> None:
        check_system(nodes)

    def describe(self) -> Dict[str, object]:
        out = super().describe()
        if not self.planted and self.node_cls is not get_algorithm("rcv"):
            # a class handed in by a test: named, not replayable
            out["node_cls"] = self.node_cls.__name__
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
    mutual_exclusion = False  # there is nothing exclusive about it
    id_equivariant = True

    def __init__(self, n: int) -> None:
        super().__init__("echo", n, EchoNode)

    def fingerprint_node(self, node: EchoNode) -> Tuple:
        # its own two fields rather than the generic walk, because
        # canonical() relabels the ids inside them
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
#: every name :func:`make_model` accepts: the registry's, plus the toy
ALGORITHMS = tuple(sorted({*algorithm_names(), "echo"}))


def _registered(algo: str) -> type:
    try:
        return get_algorithm(algo)
    except KeyError:
        raise VerifyError(
            f"unknown algorithm {algo!r}; choices: {list(ALGORITHMS)}"
        ) from None


def make_model(algo: str, n: int, **opts) -> AlgorithmModel:
    """Build the model for ``algo`` (see :data:`ALGORITHMS`).

    ``opts`` are the node class's own keyword arguments
    (``quorum_system`` for maekawa, ``parents`` for raymond), or
    :class:`RCVModel`'s for rcv.  ``planted`` (rcv only) overlays a
    known-bug node class from :mod:`repro.verify.mutations`.
    """
    planted = opts.pop("planted", None)
    if planted:
        if algo != "rcv":
            raise VerifyError("planted bugs are defined for rcv only")
        from repro.verify.mutations import planted_node_class

        opts["node_cls"] = planted_node_class(planted)
    try:
        if algo == "rcv":
            model = RCVModel(n, **opts)
        elif algo == "echo":
            model = EchoModel(n, **opts)
        else:
            model = AlgorithmModel(algo, n, _registered(algo), **opts)
    except TypeError as exc:
        raise VerifyError(
            f"bad options for algorithm {algo!r}: {exc}"
        ) from None
    model.planted = planted
    return model
