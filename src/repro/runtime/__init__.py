"""Real-time asyncio runtime for the mutex algorithms.

The same :class:`~repro.mutex.base.MutexNode` objects that run on the
discrete-event simulator run here in real time:

* :class:`~repro.runtime.local.LocalCluster` — all nodes in one
  process, messages delivered through the event loop after a
  configurable (optionally jittered) delay; the quickest way to use
  the library as an actual lock service inside an asyncio program;
* :class:`~repro.runtime.tcp.TcpCluster` — one asyncio TCP endpoint
  per node: versioned, length-prefixed frames of canonical text
  (:mod:`repro.canon`), decoded into this algorithm's messages only;
  anything else is refused as a :class:`ClusterTransportError`.

Both expose the same façade::

    async with LocalCluster(5, algorithm="rcv") as cluster:
        async with cluster.lock(node_id=2):
            ...  # critical section

``acquire`` raises :class:`ClusterTransportError` — rather than wait
for a grant that cannot come — once the transport has lost a peer.
"""

from repro.runtime.env import AsyncEnv
from repro.runtime.facade import ClusterTransportError
from repro.runtime.local import LocalCluster
from repro.runtime.tcp import TcpCluster

__all__ = ["AsyncEnv", "ClusterTransportError", "LocalCluster", "TcpCluster"]
