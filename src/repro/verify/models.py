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

States are never folded under node-id permutations: RCV's Order
rule, Ricart–Agrawala's ``(ts, id)`` priority and Maekawa's arbiter
priorities all break ties on concrete node ids, so two such states
are *not* behaviorally equivalent.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import RCVConfig
from repro.core.verification import check_system
from repro.mutex.base import Env, Hooks, MutexNode
from repro.registry import algorithm_names, get_algorithm
from repro.verify.errors import VerifyError
from repro.canon import copy_value
from repro.verify.fingerprint import FingerprintError, node_canon

__all__ = [
    "ALGORITHMS",
    "AlgorithmModel",
    "RCVModel",
    "make_model",
]


class AlgorithmModel:
    """Checker-facing adapter for one algorithm.

    One model instance serves every world of a run: worlds own the
    mutable node objects, the model only numbers the node states it
    has encoded."""

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
#: every name :func:`make_model` accepts: the registry's
ALGORITHMS = tuple(sorted(algorithm_names()))


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
        else:
            model = AlgorithmModel(algo, n, _registered(algo), **opts)
    except TypeError as exc:
        raise VerifyError(
            f"bad options for algorithm {algo!r}: {exc}"
        ) from None
    model.planted = planted
    return model
