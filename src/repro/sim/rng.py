"""Seeded random-stream management.

Every stochastic component (per-node arrival process, per-message
delay jitter, forwarding choice, …) draws from its own named stream so
that adding a new consumer never perturbs the draws seen by existing
ones — the classic reproducibility discipline for simulation studies.

Streams are derived from a root seed with SHA-256 over the stream
name, which is stable across Python versions and platforms (unlike
``hash()``).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

from repro.sim.streams import check_stream_name, node_stream_name

__all__ = ["RngRegistry", "spawn_seed"]


def spawn_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from ``root_seed`` and a stream name.

    The derivation is deterministic, platform-independent, and
    collision-resistant for distinct names.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory and cache of named ``random.Random`` streams."""

    def __init__(self, root_seed: int) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        Creation checks ``name`` against :mod:`repro.sim.streams` and
        raises :class:`~repro.sim.streams.UnregisteredStreamError`
        for a name that is not declared there.
        """
        rng = self._streams.get(name)
        if rng is None:
            check_stream_name(name)
            rng = random.Random(spawn_seed(self.root_seed, name))
            self._streams[name] = rng
        return rng

    def node_stream(self, kind: str, node_id: int) -> random.Random:
        """Convenience: per-node stream, e.g. ``node_stream('driver', 3)``."""
        return self.stream(node_stream_name(kind, node_id))

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __len__(self) -> int:
        return len(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngRegistry(root_seed={self.root_seed}, streams={len(self)})"
