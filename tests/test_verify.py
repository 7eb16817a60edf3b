"""The model checker (``python -m repro.verify``).

Covers, per docs/verification.md:

* exhaustive N=3 verification of RCV, Ricart–Agrawala and Maekawa
  under non-FIFO delivery with pinned reachable-state counts, so a
  state-space regression is a visible diff;
* the soundness cross-checks — sleep-set reduction preserves the
  reachable set, the fast cloner matches the deepcopy oracle, two
  consecutive runs are bit-for-bit identical;
* channel semantics (FIFO restriction, drop/dup adversary budgets)
  and the symmetry quotient on the id-equivariant echo model;
* counterexample schedules: export, save/load, deterministic replay;
* the CLI contract (exit codes, ``--json`` shape).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.node import RCVNode
from repro.core.state import SystemInfo
from repro.verify import VerifyError, World, check, fingerprint, make_model
from repro.verify.fingerprint import FingerprintError
from repro.verify.checker import Checker
from repro.verify.schedule import (
    load_schedule,
    replay,
    save_schedule,
    schedule_dict,
)
from repro.verify.world import ChoiceSource

ROOT = Path(__file__).resolve().parents[1]

#: pinned reachable-state counts — a diff here means the protocol (or
#: the checker) changed behaviour, and must be justified in the PR
STATE_PINS = {
    ("rcv", 3): (11334, 14093),
    ("ricart_agrawala", 3): (8132, 14316),
    ("maekawa", 3): (2722, 5873),
}


# ----------------------------------------------------------------------
# exhaustive verification + pins (the ISSUE's acceptance matrix)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algo", ["rcv", "ricart_agrawala", "maekawa"])
def test_exhaustive_n3_nonfifo_clean_and_pinned(algo):
    result = check(algo, 3)
    assert result.complete, "state space not exhausted"
    assert result.violations == []
    assert (result.states, result.transitions) == STATE_PINS[(algo, 3)]


def test_two_consecutive_runs_are_identical():
    a = check("rcv", 2)
    b = check("rcv", 2)
    assert (a.states, a.transitions, a.max_depth_seen) == (
        b.states,
        b.transitions,
        b.max_depth_seen,
    )


# ----------------------------------------------------------------------
# soundness cross-checks
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "algo,n", [("rcv", 2), ("ricart_agrawala", 3), ("maekawa", 3)]
)
def test_sleep_sets_preserve_reachable_states(algo, n):
    pruned = check(algo, n, reduce="sleep")
    full = check(algo, n, reduce="none")
    assert pruned.states == full.states
    assert pruned.transitions <= full.transitions
    assert pruned.complete and full.complete


def test_fast_clone_matches_deepcopy_oracle():
    fast = check("rcv", 2)
    oracle = check("rcv", 2, oracle=True)
    assert (fast.states, fast.transitions) == (
        oracle.states,
        oracle.transitions,
    )
    assert oracle.violations == []


def test_fifo_restriction_shrinks_the_space():
    nonfifo = check("rcv", 2)
    fifo = check("rcv", 2, fifo=True)
    assert fifo.complete and fifo.violations == []
    assert fifo.states < nonfifo.states


def test_adversary_budgets_explored_clean():
    drops = check("rcv", 2, drop_budget=1)
    assert drops.complete and drops.violations == []
    # losing a message must never *shrink* what can happen
    assert drops.states > check("rcv", 2).states
    dups = check("rcv", 2, dup_budget=1)
    assert dups.complete and dups.violations == []


def test_stuck_check_auto_disabled_under_drops():
    checker = Checker(make_model("rcv", 2), drop_budget=1)
    assert not checker._stuck_enabled
    assert Checker(make_model("rcv", 2))._stuck_enabled


def test_multiple_requests_per_node():
    result = check("rcv", 2, requests=2)
    assert result.complete and result.violations == []
    assert result.states == 509


# ----------------------------------------------------------------------
# symmetry quotient (echo is id-equivariant; the mutex models are not)
# ----------------------------------------------------------------------
def test_echo_symmetry_quotient():
    full = check("echo", 3)
    sym = check("echo", 3, symmetry=True)
    assert (full.states, sym.states) == (1331, 253)
    assert full.complete and sym.complete
    assert full.violations == [] and sym.violations == []


def test_symmetry_refused_for_id_dependent_models():
    with pytest.raises(VerifyError):
        check("rcv", 2, symmetry=True)
    with pytest.raises(VerifyError):
        check("echo", 3, symmetry=True, fifo=True)


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------
def test_unknown_algorithm_and_options_raise():
    with pytest.raises(VerifyError):
        check("no-such-algo", 3)
    with pytest.raises(VerifyError):
        check("rcv", 3, model_opts={"bogus_option": 1})
    with pytest.raises(VerifyError):
        check("rcv", 3, search="sideways")
    with pytest.raises(VerifyError):
        check("rcv", 3, checks=("me", "vibes"))


# ----------------------------------------------------------------------
# canon coverage: every world construction checks the fingerprint
# tables against the live node (verify/fingerprint.py)
# ----------------------------------------------------------------------
def _canon_error(model):
    with pytest.raises(FingerprintError) as err:
        World(model)
    assert "src/repro/verify/fingerprint.py" in str(err.value)
    return str(err.value)


def test_canon_guard_catches_new_node_attribute():
    class Shiny(RCVNode):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.shiny_new_state = 0

    message = _canon_error(make_model("rcv", 3, node_cls=Shiny))
    assert "'shiny_new_state'" in message
    assert "neither RCV_NODE_CANON nor RCV_NODE_EXCLUDED" in message


def test_canon_guard_catches_new_systeminfo_slot():
    class ShinySI(SystemInfo):
        __slots__ = ("_shiny_slot",)

    class Shiny(RCVNode):
        def __init__(self, node_id, n_nodes, *args, **kwargs):
            super().__init__(node_id, n_nodes, *args, **kwargs)
            self.si = ShinySI(n_nodes)

    message = _canon_error(make_model("rcv", 3, node_cls=Shiny))
    assert "'_shiny_slot'" in message
    assert "neither SYSTEMINFO_CANON nor SYSTEMINFO_EXCLUDED" in message


@pytest.mark.parametrize(
    "table, change, complaint",
    [
        (
            "RCV_NODE_CANON",
            lambda t: t.pop("_parked"),
            "['_parked'] are in neither RCV_NODE_CANON nor",
        ),
        (
            "RCV_NODE_CANON",
            lambda t: t.update(ghost_attr=int),
            "['ghost_attr'] are stale entries of RCV_NODE_CANON",
        ),
        (
            "RA_NODE_EXCLUDED",
            lambda t: t.update(ghost_attr="long gone"),
            "['ghost_attr'] are stale entries of RA_NODE_EXCLUDED",
        ),
        (
            "RCV_NODE_EXCLUDED",
            lambda t: t.update(_fwd_rng=" "),
            "['_fwd_rng'] have no justification in RCV_NODE_EXCLUDED",
        ),
        (
            "QUORUM_NODE_EXCLUDED",
            lambda t: t.update(clock="also canon"),
            "['clock'] are in both QUORUM_NODE_CANON and QUORUM_NODE_EXCLUDED",
        ),
    ],
    ids=["dropped", "ghost-canon", "ghost-excluded", "blank", "both"],
)
def test_canon_guard_catches_a_table_that_drifted(
    table, change, complaint, monkeypatch
):
    mutated = dict(getattr(fingerprint, table))
    change(mutated)
    monkeypatch.setattr(fingerprint, table, mutated)
    algo = {"RCV": "rcv", "RA": "ricart_agrawala", "QUORUM": "maekawa"}[
        table.split("_")[0]
    ]
    assert complaint in _canon_error(make_model(algo, 3))


# ----------------------------------------------------------------------
# worlds, choices, schedules
# ----------------------------------------------------------------------
def test_enabled_actions_are_deterministic():
    world = World(make_model("rcv", 3))
    assert world.enabled_actions() == world.enabled_actions()
    assert world.enabled_actions() == [
        ("request", 0),
        ("request", 1),
        ("request", 2),
    ]


def test_choice_source_scripts_and_records():
    source = ChoiceSource()
    source.begin(script=())
    picked = source.choice(["a", "b", "c"])
    assert picked == "a"  # default: first alternative
    assert source.taken == [0]
    assert source.factors == [3]
    source.begin(script=(2,))
    assert source.choice(["a", "b", "c"]) == "c"


def test_schedule_round_trip_through_disk(tmp_path):
    result = check(
        "rcv",
        3,
        model_opts={"planted": "skip-release-wait"},
        checks=("me",),
    )
    violation = result.violations[0]
    assert violation.kind == "mutual-exclusion"
    path = tmp_path / "trace.json"
    save_schedule(schedule_dict(result.to_dict()["settings"], violation), path)
    got = replay(load_schedule(path))
    assert got is not None
    assert (got.kind, got.depth) == (violation.kind, violation.depth)


def test_schedule_version_gate(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 99}), encoding="utf-8")
    with pytest.raises(VerifyError):
        load_schedule(path)


def test_schedule_against_wrong_build_is_detected():
    result = check("rcv", 2)
    assert result.violations == []
    # Hand-craft a schedule whose step is not enabled at the root.
    sched = {
        "version": 1,
        "settings": result.to_dict()["settings"],
        "violation": {"kind": "x", "message": "x", "depth": 1},
        "steps": [{"op": "deliver", "arg": 12345, "choices": [], "note": ""}],
    }
    with pytest.raises(VerifyError, match="not\\s+enabled"):
        replay(sched)


# ----------------------------------------------------------------------
# DFS + budgets
# ----------------------------------------------------------------------
def test_dfs_explores_the_same_space():
    bfs = check("rcv", 2)
    dfs = check("rcv", 2, search="dfs")
    assert bfs.states == dfs.states


def test_budget_truncation_reported():
    result = check("rcv", 3, max_states=100)
    assert not result.complete
    assert result.truncated
    assert result.states <= 100


# ----------------------------------------------------------------------
# CLI contract
# ----------------------------------------------------------------------
def _cli(*args, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.verify", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_cli_clean_exits_zero_with_json():
    proc = _cli("--algo", "rcv", "--n", "2", "--json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["complete"] is True
    assert doc["violations"] == []
    assert doc["states"] == 45
    assert doc["settings"]["algo"] == "rcv"


def test_cli_violation_exits_one_and_saves_trace(tmp_path):
    trace = tmp_path / "trace.json"
    proc = _cli(
        "--algo",
        "rcv",
        "--n",
        "2",
        "--planted-bug",
        "skip-release-wait",
        "--checks",
        "me",
        "--save-trace",
        str(trace),
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "mutual-exclusion" in proc.stdout
    sched = load_schedule(trace)
    got = replay(sched)
    assert got is not None and got.kind == "mutual-exclusion"


def test_cli_budget_truncation_exits_two():
    proc = _cli("--algo", "rcv", "--n", "3", "--max-states", "50")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "TRUNCATED" in proc.stdout


def test_cli_list_planted_bugs():
    proc = _cli("--list-planted-bugs")
    assert proc.returncode == 0
    for name in (
        "skip-release-wait",
        "skip-exchange-renormalize",
        "eager-done",
        "blind-commit",
    ):
        assert name in proc.stdout


# ----------------------------------------------------------------------
# the reliable channel in the model (retx): liveness under loss becomes
# a CHECKABLE property, and the planted transport mutant gets caught
# ----------------------------------------------------------------------
def test_rcv_with_retx_is_stuck_free_under_a_drop_budget():
    """The tentpole's proof obligation: with retransmission modeled,
    the stuck check stays armed under a nonzero drop budget and the
    full N=2 space is explored clean — loss is exhaustively shown to
    be a delay, not a wedge."""
    result = check("rcv", 2, drop_budget=1, retx=True)
    assert result.complete and result.violations == []
    # dropping-then-retransmitting reaches more interleavings than
    # never dropping at all
    assert result.states > check("rcv", 2).states


def test_stuck_check_stays_armed_when_retx_models_recovery():
    wedgeable = Checker(make_model("rcv", 2), drop_budget=1)
    assert not wedgeable._stuck_enabled
    reliable = Checker(make_model("rcv", 2), drop_budget=1, retx=True)
    assert reliable._stuck_enabled


def test_retx_dedupe_absorbs_the_dup_adversary():
    """Under retx, a duplicate is consumed by receive-side dedupe, so
    the dup budget buys the adversary strictly fewer behaviours."""
    deduped = check("rcv", 2, dup_budget=1, retx=True)
    assert deduped.complete and deduped.violations == []
    assert deduped.states < check("rcv", 2, dup_budget=1).states


def test_retx_broken_requires_retx():
    with pytest.raises(VerifyError):
        Checker(make_model("rcv", 2), retx_broken=True)


def test_broken_retx_mutant_is_caught_stuck_at_minimal_depth():
    """The planted transport bug (skip-retransmit-on-timeout): the
    checker must find the wedge, at the BFS-minimal depth — two
    requests, one delivery, one silently-unretransmitted drop."""
    result = check("rcv", 2, drop_budget=1, retx=True, retx_broken=True)
    assert result.violations, "checker missed the broken-retx mutant"
    violation = result.violations[0]
    assert violation.kind == "stuck"
    assert violation.depth == 4
    # round-trip: the exported schedule replays to the same violation
    sched = schedule_dict(result.to_dict()["settings"], violation)
    got = replay(sched)
    assert got is not None
    assert (got.kind, got.depth) == ("stuck", 4)


def test_retx_settings_are_absent_unless_enabled():
    """Pre-retx schedule JSON must keep replaying unchanged, so the
    settings dict only grows the new keys when they are set."""
    plain = Checker(make_model("rcv", 2)).settings()
    assert "retx" not in plain and "retx_broken" not in plain
    armed = Checker(make_model("rcv", 2), retx=True).settings()
    assert armed["retx"] is True and "retx_broken" not in armed


def test_cli_retx_flags():
    clean = _cli("--algo", "rcv", "--n", "2", "--drops", "1", "--retx")
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert "no violations" in clean.stdout
    broken = _cli(
        "--algo", "rcv", "--n", "2", "--drops", "1",
        "--retx", "--broken-retx",
    )
    assert broken.returncode == 1, broken.stdout + broken.stderr
    assert "VIOLATION [stuck]" in broken.stdout
    orphan = _cli("--algo", "rcv", "--n", "2", "--broken-retx")
    assert orphan.returncode == 2
    assert "requires retx" in orphan.stderr
