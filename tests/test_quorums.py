"""Tests for the quorum construction library (incl. hypothesis
property tests over system sizes)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quorums import (
    CoterieError,
    fpp_quorums,
    grid_quorums,
    is_coterie,
    is_fpp_order,
    majority_quorums,
    tree_quorums,
    validate_quorum_system,
)
from repro.quorums.tree import tree_quorum_avoiding


# ----------------------------------------------------------------------
# validation machinery itself
# ----------------------------------------------------------------------
def test_validate_catches_wrong_count():
    with pytest.raises(CoterieError, match="expected"):
        validate_quorum_system([frozenset({0})], 2)


def test_validate_catches_empty_quorum():
    with pytest.raises(CoterieError, match="empty"):
        validate_quorum_system([frozenset(), frozenset({1})], 2)


def test_validate_catches_out_of_range():
    with pytest.raises(CoterieError, match="invalid members"):
        validate_quorum_system([frozenset({0, 7}), frozenset({0, 1})], 2)


def test_validate_catches_missing_self():
    with pytest.raises(CoterieError, match="own quorum"):
        validate_quorum_system([frozenset({1}), frozenset({1})], 2)


def test_validate_catches_disjoint_quorums():
    qs = [frozenset({0}), frozenset({1})]
    with pytest.raises(CoterieError, match="do not intersect"):
        validate_quorum_system(qs, 2)


def test_validate_minimality():
    qs = [frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({1, 2})]
    with pytest.raises(CoterieError, match="strictly contains"):
        validate_quorum_system(qs, 3, require_self=False, require_minimal=True)


def test_is_coterie_boolean_form():
    assert is_coterie(majority_quorums(5), 5)
    assert not is_coterie([frozenset({0}), frozenset({1})], 2)


# ----------------------------------------------------------------------
# constructions (hypothesis sweeps)
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=120))
def test_grid_quorums_are_coteries(n):
    qs = grid_quorums(n)
    validate_quorum_system(qs, n, require_self=True)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=120))
def test_grid_quorum_size_near_2_sqrt_n(n):
    qs = grid_quorums(n)
    cols = math.ceil(math.sqrt(n))
    rows = math.ceil(n / cols)
    assert all(len(q) <= rows + cols - 1 for q in qs)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=60))
def test_majority_quorums_are_coteries(n):
    qs = majority_quorums(n)
    validate_quorum_system(qs, n, require_self=True)
    assert all(len(q) == n // 2 + 1 for q in qs)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=200))
def test_tree_quorums_intersect(n):
    qs = tree_quorums(n)
    validate_quorum_system(qs, n, require_self=False)
    # all contain the root
    assert all(0 in q for q in qs)
    # path length is logarithmic
    depth = math.floor(math.log2(n)) + 1
    assert all(len(q) <= depth for q in qs)


@pytest.mark.parametrize("q,n", [(2, 7), (3, 13), (5, 31)])
def test_fpp_quorums_exact_properties(q, n):
    assert is_fpp_order(n)
    qs = fpp_quorums(n)
    validate_quorum_system(qs, n, require_self=True)
    assert all(len(quorum) == q + 1 for quorum in qs)
    # any two distinct lines meet in exactly one point
    for i in range(n):
        for j in range(i + 1, n):
            if qs[i] != qs[j]:
                assert len(qs[i] & qs[j]) == 1


def test_fpp_rejects_non_plane_orders():
    assert not is_fpp_order(10)
    with pytest.raises(ValueError):
        fpp_quorums(10)


def test_fpp_load_is_balanced():
    """The matching assigns each line to exactly one node."""
    qs = fpp_quorums(13)
    assert len(set(qs)) == 13


# ----------------------------------------------------------------------
# tree quorums under failures
# ----------------------------------------------------------------------
def test_tree_avoiding_no_failures_is_a_path():
    q = tree_quorum_avoiding(7, failed=[])
    assert 0 in q and len(q) == 3


def test_tree_avoiding_root_failure_uses_both_children():
    q = tree_quorum_avoiding(7, failed=[0])
    assert 0 not in q
    assert 1 in q and 2 in q  # both subtrees covered


def test_tree_avoiding_intersects_unfailed_paths():
    failed = [1]
    q = tree_quorum_avoiding(15, failed=failed)
    for other in tree_quorums(15):
        if not (set(other) & set(failed)):
            assert q & other, f"{set(q)} misses {set(other)}"


def test_tree_avoiding_failed_leaf_raises():
    with pytest.raises(ValueError):
        tree_quorum_avoiding(3, failed=[0, 1, 2])


def test_constructors_reject_bad_n():
    for fn in (grid_quorums, majority_quorums, tree_quorums):
        with pytest.raises(ValueError):
            fn(0)


# ----------------------------------------------------------------------
# Maekawa's quorum systems: built once, shared immutably
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 7, 13, 30])
@pytest.mark.parametrize("family", ["grid", "fpp", "majority"])
def test_build_quorums_is_built_once_and_immutable(n, family):
    from repro.baselines.maekawa import build_quorums

    quorums = build_quorums(n, family)
    assert build_quorums(n, family) is quorums
    assert isinstance(quorums, tuple)
    assert all(isinstance(q, frozenset) for q in quorums)
    fresh = {
        "grid": grid_quorums,
        "fpp": fpp_quorums if is_fpp_order(n) else grid_quorums,
        "majority": majority_quorums,
    }[family](n)
    assert list(quorums) == fresh


def test_maekawa_nodes_share_one_quorum_system():
    from repro.engine import Engine
    from repro.workload import BurstArrivals, Scenario

    a, b = (
        Engine(Scenario("maekawa", 30, BurstArrivals(1), seed=seed))
        for seed in (0, 1)
    )
    assert list(grid_quorums(30)) == [node.quorum for node in a.nodes]
    for x, y in zip(a.nodes, b.nodes):
        assert x.quorum is y.quorum
