"""Maekawa's √N algorithm [9] — the paper's quorum comparator.

A thin specialization of :class:`~repro.baselines.quorum_base.
QuorumMutexNode` with the quorum family chosen at construction:

* ``"grid"`` (default) — the row+column grid, the common realization
  of the construction the paper's §6.2 uses ("the first method
  mentioned in [9]");
* ``"fpp"`` — finite-projective-plane quorums of size q+1 when
  ``N = q²+q+1`` (Maekawa's optimal sets), falling back to the grid
  for other N;
* ``"majority"`` — Thomas's majority coterie, for the MCV ablation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Tuple

from repro.baselines.quorum_base import QuorumMutexNode
from repro.mutex.base import Env, Hooks
from repro.quorums.fpp import fpp_quorums, is_fpp_order
from repro.quorums.grid import grid_quorums
from repro.quorums.majority import majority_quorums

__all__ = ["MaekawaNode", "build_quorums"]


@lru_cache(maxsize=None)
def build_quorums(n: int, quorum_system: str) -> Tuple[FrozenSet[int], ...]:
    """The quorum of every node (index = node id) of one family.

    Built once per ``(n, quorum_system)`` and shared, immutable, by
    every node of every run (the cache holds one tuple per node count a
    process runs): each node keeps only its own quorum, and building
    all N of them in each of the N nodes cost 11% of a Maekawa cell at
    N=30.
    """
    if quorum_system == "grid":
        return tuple(grid_quorums(n))
    if quorum_system == "fpp":
        if is_fpp_order(n):
            return tuple(fpp_quorums(n))
        return tuple(grid_quorums(n))
    if quorum_system == "majority":
        return tuple(majority_quorums(n))
    raise ValueError(
        f"unknown quorum system {quorum_system!r}; "
        "choices: grid, fpp, majority"
    )


class MaekawaNode(QuorumMutexNode):
    """One node of Maekawa's algorithm."""

    algorithm_name = "maekawa"

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        env: Env,
        hooks: Hooks,
        *,
        quorum_system: str = "grid",
    ) -> None:
        super().__init__(
            node_id,
            n_nodes,
            env,
            hooks,
            build_quorums(n_nodes, quorum_system),
        )
