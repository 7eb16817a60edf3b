"""Canonical registry of named RNG streams.

Every random draw in the deterministic core flows through a *named*
stream of :class:`~repro.sim.rng.RngRegistry` (see ``sim/rng.py``);
the stream **names** are declared here, once, so they cannot silently
collide or typo-fork across call sites.  The registry enforces itself
where the names flow: :meth:`RngRegistry.stream` checks a name the
first time it creates that stream (:func:`check_stream_name`), and
:func:`node_stream_name` checks the kind it formats — both raise
:class:`UnregisteredStreamError`.  Every ``Env.rng`` (simulated,
asyncio, and the model checker's) is reached through one of the two.

Two kinds of entry:

* ``STREAM_*`` constants are full stream names, used as-is
  (``rngs.stream(STREAM_NET_DELAY)``).
* ``NODE_KIND_*`` constants are per-node stream *kinds*; the actual
  stream name is ``"<kind>/<node_id>"``, built by
  :func:`node_stream_name` (or ``RngRegistry.node_stream``).

Adding a stream is a one-line change here — the constant plus its
membership in :data:`STREAM_NAMES` or :data:`NODE_STREAM_KINDS` — and
the call site.
"""

from __future__ import annotations

__all__ = [
    "STREAM_NET_DELAY",
    "STREAM_NET_FAULTS",
    "STREAM_NET_RETX",
    "NODE_KIND_DRIVER",
    "NODE_KIND_RCV_FORWARD",
    "STREAM_NAMES",
    "NODE_STREAM_KINDS",
    "UnregisteredStreamError",
    "check_stream_name",
    "node_stream_name",
]

#: Per-message propagation-delay jitter (stochastic delay models).
STREAM_NET_DELAY = "net/delay"

#: Drop/dup/reorder draws of the fault fabric — its own stream, so
#: fault cells never perturb the delay/workload draws of clean cells.
STREAM_NET_FAULTS = "net/faults"

#: Ack-loss draws of the reliable (ack/retransmit) channel — again its
#: own stream, so enabling retransmission never perturbs the delay,
#: workload, or fault draws (streams are name-derived, so a run with
#: retx disabled simply never creates this one).
STREAM_NET_RETX = "net/retx"

#: Per-node workload driver: arrival interludes and CS hold times.
NODE_KIND_DRIVER = "driver"

#: Per-node RCV forwarding choice (random forwarding policy).
NODE_KIND_RCV_FORWARD = "rcv-fwd"

#: All registered full stream names.
STREAM_NAMES = frozenset(
    {STREAM_NET_DELAY, STREAM_NET_FAULTS, STREAM_NET_RETX}
)

#: All registered per-node stream kinds.
NODE_STREAM_KINDS = frozenset({NODE_KIND_DRIVER, NODE_KIND_RCV_FORWARD})


class UnregisteredStreamError(ValueError):
    """A stream name or per-node kind that this module does not
    declare: a typo here would silently fork the draws every other
    run sees — still deterministic, just *different*."""


def check_stream_name(name: str) -> None:
    """Raise unless ``name`` is a registered full stream name or
    ``"<registered kind>/<suffix>"``."""
    kind, sep, _ = name.partition("/")
    if name not in STREAM_NAMES and not (sep and kind in NODE_STREAM_KINDS):
        raise UnregisteredStreamError(
            f"rng stream {name!r} is not registered in "
            f"src/repro/sim/streams.py (names: {sorted(STREAM_NAMES)}; "
            f"per-node kinds: {sorted(NODE_STREAM_KINDS)})"
        )


def node_stream_name(kind: str, node_id: int) -> str:
    """The full stream name of a per-node stream: ``"<kind>/<id>"``.

    The single formatting point for per-node names — used by
    :meth:`~repro.sim.rng.RngRegistry.node_stream` and by call sites
    that only hold an :class:`~repro.mutex.base.Env` (whose ``rng``
    takes a full name).  An unregistered ``kind`` is an
    :class:`UnregisteredStreamError`.
    """
    if kind not in NODE_STREAM_KINDS:
        raise UnregisteredStreamError(
            f"per-node rng stream kind {kind!r} is not registered in "
            f"src/repro/sim/streams.py (kinds: {sorted(NODE_STREAM_KINDS)})"
        )
    return f"{kind}/{node_id}"
