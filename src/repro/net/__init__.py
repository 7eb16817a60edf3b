"""Network substrate: delays, channels, topologies, delivery.

The paper's model (§3, §6.2): N fully connected nodes, reliable
message passing, no shared memory, constant propagation delay
``Tn = 5`` time units, with the explicit claim that the algorithm
tolerates non-FIFO delivery.  This package provides that model and
the knobs to stress it:

* :mod:`~repro.net.delay` — delay models (constant, uniform,
  exponential-jitter) drawn from seeded streams;
* :mod:`~repro.net.channels` — per-pair channel discipline
  (``fifo`` enforces in-order delivery on top of any delay model,
  ``reorder`` allows arbitrary overtaking);
* :mod:`~repro.net.topology` — latency matrices from graph layouts
  (complete, ring, star, random geometric via networkx when
  available);
* :mod:`~repro.net.faults` — the deterministic fault fabric:
  normalized drop/dup/reorder/partition/crash fault specs
  (:func:`~repro.net.faults.normalize_faults`), the seeded
  :class:`~repro.net.faults.FaultyChannel`, and the
  :class:`~repro.net.faults.FaultPlan`, the one judge of whether a
  partition or crash loses a send;
* :mod:`~repro.net.retx` — the reliable (ack/retransmit) delivery
  discipline: :class:`~repro.net.retx.ReliableChannel` layers
  at-least-once delivery with receive-side dedupe over any channel
  (including the fault fabric), spec-normalized by
  :func:`~repro.net.retx.normalize_retx`;
* :mod:`~repro.net.network` — the delivery fabric binding a
  :class:`~repro.sim.kernel.Simulator` to a set of actors, with
  message accounting by type.
"""

from repro.net.channels import ChannelDiscipline, FifoChannel, RawChannel
from repro.net.faults import FaultPlan, FaultyChannel, normalize_faults
from repro.net.delay import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    JitteredDelay,
    MatrixDelay,
    UniformDelay,
)
from repro.net.message import Message
from repro.net.network import Network, NetworkStats
from repro.net.retx import ReliableChannel, normalize_retx
from repro.net.topology import LatencyMatrix, Topology

__all__ = [
    "ChannelDiscipline",
    "ConstantDelay",
    "DelayModel",
    "ExponentialDelay",
    "FaultPlan",
    "FaultyChannel",
    "FifoChannel",
    "JitteredDelay",
    "LatencyMatrix",
    "MatrixDelay",
    "Message",
    "Network",
    "NetworkStats",
    "RawChannel",
    "ReliableChannel",
    "normalize_faults",
    "normalize_retx",
    "Topology",
    "UniformDelay",
]
