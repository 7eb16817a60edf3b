"""Algorithm-facing interfaces: environment, hooks, node base class.

Life cycle of a node, as seen by a workload driver::

    node.request_cs()          # driver decides to compete
      ... protocol messages ...
    hooks.on_granted(node_id)  # algorithm grants the CS
      ... driver holds the CS for Tc ...
    node.release_cs()          # driver leaves
    hooks.on_released(node_id)

Invariants enforced here (and relied on by every algorithm):

* at most one outstanding request per node (paper §3);
* ``release_cs`` only while holding the CS;
* grant exactly once per request.
"""

from __future__ import annotations

import enum
import random
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional

from repro.net.message import Message
from repro.net.network import Network
from repro.sim.kernel import Handle, Simulator
from repro.sim.process import Actor

__all__ = [
    "Env",
    "Hooks",
    "MutexNode",
    "NodeState",
    "ProtocolStateError",
    "SimEnv",
]


class ProtocolStateError(RuntimeError):
    """The node state machine was driven through an illegal edge.

    Subclasses :class:`RuntimeError` for compatibility with existing
    callers; the distinct type lets tooling that executes the protocol
    under adversarial schedules (the ``repro.verify`` model checker)
    classify a state-machine breach — e.g. a double grant — as a
    protocol violation rather than an infrastructure failure.
    """


class NodeState(enum.Enum):
    """Coarse request state, common to all algorithms."""

    IDLE = "idle"
    REQUESTING = "requesting"
    IN_CS = "in_cs"


class Env(ABC):
    """The world interface an algorithm node programs against."""

    @abstractmethod
    def now(self) -> float:
        """Current time (simulated or wall-clock seconds)."""

    @abstractmethod
    def send(self, src: int, dst: int, message: Message) -> None:
        """Transmit ``message``; delivery is asynchronous and reliable."""

    @abstractmethod
    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> Handle:
        """Run ``callback`` after ``delay`` time units; cancellable."""

    def schedule_once(
        self, delay: float, callback: Callable[[], None]
    ) -> None:
        """Run ``callback`` after ``delay``; fire-once, NOT cancellable.

        Environments with a cheaper non-cancellable path (the
        simulator's handle-free fast path, asyncio's bare
        ``call_later``) override this; the default simply delegates
        to :meth:`schedule` and discards the handle.
        """
        self.schedule(delay, callback)

    @abstractmethod
    def rng(self, name: str) -> random.Random:
        """Named deterministic random stream."""


class SimEnv(Env):
    """Discrete-event simulator implementation of :class:`Env`.

    ``send`` and ``schedule_once`` are handed out as the network's and
    the kernel's own bound methods (instance attributes, which shadow
    ``send`` below), so a protocol send costs no forwarding frame.
    """

    def __init__(self, sim: Simulator, network: Network, rng_registry) -> None:
        self._sim = sim
        self._network = network
        self._rngs = rng_registry
        self.send = network.send
        self.schedule_once = sim.schedule_fast

    def now(self) -> float:
        return self._sim.now

    def send(self, src: int, dst: int, message: Message) -> None:
        self._network.send(src, dst, message)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Handle:
        return self._sim.schedule(delay, callback)

    def rng(self, name: str) -> random.Random:
        return self._rngs.stream(name)


class Hooks:
    """Application upcalls; multiple listeners may subscribe.

    A listener subscribes to every node (the default: safety monitor,
    metrics collector, trace recorder, runtimes) or, with ``node``, to
    one node only (the engine's per-node workload driver).  An upcall
    runs the every-node listeners first, in subscription order, then
    that node's own.
    """

    def __init__(self) -> None:
        self._granted: List[Callable[[int], None]] = []
        self._released: List[Callable[[int], None]] = []
        self._granted_at: Dict[int, List[Callable[[int], None]]] = {}
        self._released_at: Dict[int, List[Callable[[int], None]]] = {}

    def subscribe_granted(
        self, fn: Callable[[int], None], node: Optional[int] = None
    ) -> None:
        if node is None:
            self._granted.append(fn)
        else:
            self._granted_at.setdefault(node, []).append(fn)

    def subscribe_released(
        self, fn: Callable[[int], None], node: Optional[int] = None
    ) -> None:
        if node is None:
            self._released.append(fn)
        else:
            self._released_at.setdefault(node, []).append(fn)

    def clear(self) -> None:
        """Drop every subscriber (the engine's teardown)."""
        self._granted.clear()
        self._released.clear()
        self._granted_at.clear()
        self._released_at.clear()

    def on_granted(self, node_id: int) -> None:
        for fn in self._granted:
            fn(node_id)
        for fn in self._granted_at.get(node_id, ()):
            fn(node_id)

    def on_released(self, node_id: int) -> None:
        for fn in self._released:
            fn(node_id)
        for fn in self._released_at.get(node_id, ()):
            fn(node_id)


class MutexNode(Actor):
    """Base class for all mutual-exclusion algorithm nodes.

    Subclasses implement :meth:`_do_request`, :meth:`_do_release` and
    :meth:`on_message`; the base class guards the state machine so a
    buggy driver (or protocol) fails fast instead of corrupting the
    experiment.
    """

    #: short name used in experiment tables; subclasses override.
    algorithm_name = "abstract"

    def __init__(
        self, node_id: int, n_nodes: int, env: Env, hooks: Hooks
    ) -> None:
        super().__init__(node_id)
        if not 0 <= node_id < n_nodes:
            raise ValueError(f"node_id {node_id} outside [0, {n_nodes})")
        self.node_id = node_id
        self.n_nodes = n_nodes
        self.env = env
        self.hooks = hooks
        self.state = NodeState.IDLE
        #: monotonically increasing count of completed CS executions
        self.cs_count = 0

    # ------------------------------------------------------------------
    # driver-facing API
    # ------------------------------------------------------------------
    def request_cs(self) -> None:
        """Issue a request for the critical section.

        Raises if a request is already outstanding (the paper's model
        allows one outstanding request per node).
        """
        if self.state is not NodeState.IDLE:
            raise ProtocolStateError(
                f"node {self.node_id} requested CS while {self.state.value}"
            )
        self.state = NodeState.REQUESTING
        self._do_request()

    def release_cs(self) -> None:
        """Leave the critical section."""
        if self.state is not NodeState.IN_CS:
            raise ProtocolStateError(
                f"node {self.node_id} released CS while {self.state.value}"
            )
        self.state = NodeState.IDLE
        self.cs_count += 1
        self._do_release()
        self.hooks.on_released(self.node_id)

    # ------------------------------------------------------------------
    # algorithm-facing helpers
    # ------------------------------------------------------------------
    def _grant(self) -> None:
        """Called by the subclass when the CS is won."""
        if self.state is not NodeState.REQUESTING:
            raise ProtocolStateError(
                f"node {self.node_id} granted CS while {self.state.value}"
            )
        self.state = NodeState.IN_CS
        self.hooks.on_granted(self.node_id)

    def peers(self):
        """Iterator over all other node ids."""
        return (j for j in range(self.n_nodes) if j != self.node_id)

    def recovery_timeout(self) -> Optional[float]:
        """How long this node lets a pending request wait before it
        acts on its own (RCV's ``rm_timeout``), or None: it never
        does.  The engine's stall rule scales with it."""
        return None

    # ------------------------------------------------------------------
    # subclass responsibilities
    # ------------------------------------------------------------------
    def _do_request(self) -> None:
        raise NotImplementedError

    def _do_release(self) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(id={self.node_id}, "
            f"state={self.state.value})"
        )
