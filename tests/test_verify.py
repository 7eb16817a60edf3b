"""The model checker (``python -m repro.verify``).

Covers, per docs/verification.md:

* exhaustive N=3 verification of every registry algorithm under FIFO
  and non-FIFO delivery with pinned reachable-state counts, so a
  state-space regression is a visible diff (Lamport: exhaustive at
  N=2, and its non-FIFO mutual-exclusion counterexample replays from
  ``tests/data/``);
* the soundness cross-checks — sleep-set reduction preserves the
  reachable set, the copy-on-write cloner matches the deepcopy oracle
  and never aliases a node, two consecutive runs are bit-for-bit
  identical;
* channel semantics (FIFO restriction, drop/dup adversary budgets),
  with the pinned one-duplicate findings;
* counterexample schedules: export, save/load, deterministic replay;
* the CLI contract (exit codes, ``--json`` shape), and the refusal of
  configurations that would report a clean run having checked nothing.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.core.node import RCVNode
from repro.core.state import SystemInfo
from repro.registry import algorithm_names, get_algorithm
from repro.verify import VerifyError, World, check, fingerprint, make_model
from repro.canon import fingerprint_message
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

#: registry names that are a second name for another name's class
ALIASES = {"broadcast": "suzuki_kasami", "tree_quorum": "agrawal_elabbadi"}
ALGOS = [name for name in algorithm_names() if name not in ALIASES]

#: pinned reachable-state counts, (states, transitions) per (algorithm,
#: n, channel) — a diff here means the protocol (or the checker)
#: changed behaviour, and must be justified in the PR.  Every entry is
#: exhaustive and clean.  Not here: agrawal_elabbadi non-FIFO (23 078
#: states, 61 733 transitions: CI's verify job and BENCH_verify.json
#: carry it, tier-1 does not spend the 5 s) and lamport, which has its
#: own section below.
STATE_PINS = {
    ("rcv", 3, "nonfifo"): (11334, 14093),
    ("rcv", 3, "fifo"): (5778, 6337),
    ("ricart_agrawala", 3, "nonfifo"): (8132, 14316),
    ("ricart_agrawala", 3, "fifo"): (4800, 6859),
    ("maekawa", 3, "nonfifo"): (2722, 5873),
    ("maekawa", 3, "fifo"): (1260, 1659),
    ("agrawal_elabbadi", 3, "fifo"): (8106, 13449),
    ("centralized", 3, "nonfifo"): (113, 141),
    ("centralized", 3, "fifo"): (113, 141),
    ("naimi_trehel", 3, "nonfifo"): (164, 201),
    ("naimi_trehel", 3, "fifo"): (154, 179),
    ("raymond", 3, "nonfifo"): (150, 192),
    ("raymond", 3, "fifo"): (136, 164),
    ("singhal", 3, "nonfifo"): (784, 1145),
    ("singhal", 3, "fifo"): (694, 927),
    ("suzuki_kasami", 3, "nonfifo"): (727, 1685),
    ("suzuki_kasami", 3, "fifo"): (589, 1224),
}


def _pinned(channel):
    return sorted(a for a, _, c in STATE_PINS if c == channel)


# ----------------------------------------------------------------------
# exhaustive verification + pins (the ISSUE's acceptance matrix)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algo", _pinned("nonfifo"))
def test_exhaustive_n3_nonfifo_clean_and_pinned(algo):
    result = check(algo, 3)
    assert result.complete, "state space not exhausted"
    assert result.violations == []
    assert (result.states, result.transitions) == STATE_PINS[(algo, 3, "nonfifo")]


@pytest.mark.parametrize("algo", _pinned("fifo"))
def test_exhaustive_n3_fifo_clean_and_pinned(algo):
    result = check(algo, 3, fifo=True)
    assert result.complete, "state space not exhausted"
    assert result.violations == []
    assert (result.states, result.transitions) == STATE_PINS[(algo, 3, "fifo")]


def test_every_registry_algorithm_is_pinned_or_accounted_for():
    pinned = {(a, c) for a, _, c in STATE_PINS}
    elsewhere = {
        ("agrawal_elabbadi", "nonfifo"),  # CI's verify job
        ("lamport", "fifo"),  # N=2 exhaustive + N=3 frontier, below
        ("lamport", "nonfifo"),  # refuted, below
    }
    assert pinned | elsewhere == {
        (a, c) for a in ALGOS for c in ("fifo", "nonfifo")
    }
    for alias, name in ALIASES.items():
        # same class, same state space: the alias needs no pin
        assert make_model(alias, 3).node_cls is get_algorithm(name)


# ----------------------------------------------------------------------
# Lamport: proven under FIFO, refuted without it
# ----------------------------------------------------------------------
def test_lamport_fifo_exhaustive_n2_and_clean_frontier_n3():
    small = check("lamport", 2, fifo=True)
    assert small.complete and small.violations == []
    assert (small.states, small.transitions) == (69, 70)
    # N=3 exceeds 300k states: a budgeted breadth-first frontier
    frontier = check("lamport", 3, fifo=True, max_states=5000)
    assert frontier.truncated == "max_states" and not frontier.complete
    assert frontier.violations == []
    assert (frontier.states, frontier.transitions) == (5000, 9060)


def test_lamport_nonfifo_breaches_mutual_exclusion_and_the_schedule_replays():
    """A REPLY overtakes the REQUEST sent before it: the receiver
    enters on a queue that lacks the sender's older request.  The
    early-release fallback does not cover this — Lamport needs FIFO."""
    result = check("lamport", 2)
    (violation,) = result.violations
    assert (violation.kind, violation.depth) == ("mutual-exclusion", 6)
    assert result.states == 49
    saved = load_schedule(
        ROOT / "tests" / "data" / "lamport_nonfifo_mutual_exclusion_n2.json"
    )
    assert [(s["op"], s["arg"]) for s in saved["steps"]] == [
        (s["op"], s["arg"]) for s in violation.steps
    ]
    got = replay(saved)
    assert got is not None
    assert (got.kind, got.depth) == ("mutual-exclusion", 6)
    # a message's id is its envelope's uid (its send number), so the
    # notes name it alike in every check; the file's "#n" are older
    notes = [s["note"] for s in violation.steps]
    assert notes[2:4] == ["deliver REQUEST#2 1->0", "deliver REPLY#3 0->1"]
    assert [s["note"] for s in check("lamport", 2).violations[0].steps] == notes
    # the same schedule is not even executable under FIFO: the REPLY
    # is not at the head of its channel
    saved["settings"]["channel"] = "fifo"
    with pytest.raises(VerifyError, match="not\\s+enabled"):
        replay(saved)


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


#: (algorithm, n, fifo) — N=3 where the deepcopy oracle is affordable,
#: else N=2; lamport under FIFO, where it is clean.  rcv is the test above.
ORACLE_CASES = [
    ("ricart_agrawala", 2, False),
    ("maekawa", 3, False),
    ("agrawal_elabbadi", 2, False),
    ("lamport", 2, True),
    ("centralized", 3, False),
    ("naimi_trehel", 3, False),
    ("raymond", 3, False),
    ("singhal", 3, False),
    ("suzuki_kasami", 3, False),
]


@pytest.mark.parametrize("algo,n,fifo", ORACLE_CASES)
def test_fast_clone_matches_deepcopy_oracle_for_every_algorithm(algo, n, fifo):
    """The oracle deep-copies whole worlds and re-encodes every node
    in every state, so agreement also shows that a transition touches
    no node but its owner."""
    assert {"rcv"} | {case[0] for case in ORACLE_CASES} == set(ALGOS)
    fast = check(algo, n, fifo=fifo)
    oracle = check(algo, n, fifo=fifo, oracle=True)
    assert (fast.states, fast.transitions) == (
        oracle.states,
        oracle.transitions,
    )
    assert fast.complete and oracle.complete


@pytest.mark.parametrize("algo", ALGOS)
def test_driving_a_clone_never_reaches_the_original(algo):
    """The aliasing property of the one generic cloner: along a random
    walk, run every enabled action on a clone of the current world —
    the world it was cloned from, re-encoded from its live nodes, has
    the fingerprints it had before."""
    world = World(make_model(algo, 3))
    model, rng = world.model, random.Random(23)
    for _ in range(30):
        actions = world.enabled_actions()
        if not actions:
            break
        before = list(world.node_fps)
        for action in actions:
            world.clone().execute(action)
            assert [model.fingerprint_node(n) for n in world.nodes] == before
        world.execute(rng.choice(actions))
        assert world.node_fps == [
            model.fingerprint_node(n) for n in world.nodes
        ]


@pytest.mark.parametrize("algo", algorithm_names())
def test_every_message_of_one_request_fingerprints(algo):
    """Node 2 (never the initial token holder) requests, everything is
    delivered, it enters and releases: every message that took — list-
    carrying tokens included — has a hashable fingerprint."""
    world = World(make_model(algo, 3))
    world.execute(("request", 2))
    sent = {}
    while True:
        sent.update(world.inflight)
        later = [a for a in world.enabled_actions() if a[0] != "request"]
        if not later:
            break
        world.execute(later[0])
    assert world.nodes[2].cs_count == 1
    assert sent, "a request at a non-holder sends something"
    for envelope in sent.values():
        assert envelope.fp == fingerprint_message(envelope.msg)
        assert envelope.fp[:2] == ("m", envelope.msg.kind)
        hash(envelope.fp)


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


#: one duplicated message at N=2, per (algorithm, channel): the
#: violation kind, its depth, the states explored to reach it and a
#: phrase of its message, or "clean" and the size of the exhausted
#: space.  Maekawa: the copy of
#: a REQUEST wins an arbiter's vote after its sender has left the CS,
#: and nobody releases it; Suzuki–Kasami refuses a second copy of the
#: token outright.
ONE_DUP_FINDINGS = {
    ("maekawa", "nonfifo"): ("stuck", 11, 647, "still REQUESTING"),
    ("maekawa", "fifo"): ("stuck", 12, 405, "still REQUESTING"),
    ("suzuki_kasami", "nonfifo"): (
        "protocol-error", 5, 23, "received the token unsolicited"
    ),
    ("rcv", "nonfifo"): ("clean", None, 444, None),
    ("ricart_agrawala", "nonfifo"): ("clean", None, 309, None),
}


@pytest.mark.parametrize("algo,channel", ONE_DUP_FINDINGS)
def test_one_duplicate_findings_are_pinned(algo, channel):
    result = check(algo, 2, dup_budget=1, fifo=channel == "fifo")
    kind, depth, states, phrase = ONE_DUP_FINDINGS[(algo, channel)]
    if kind == "clean":
        assert result.complete and result.violations == []
    else:
        (violation,) = result.violations
        assert (violation.kind, violation.depth) == (kind, depth)
        assert phrase in violation.message
    assert result.states == states


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------
#: (Checker keyword arguments, the same configuration on the command
#: line): each would explore nothing, or disarm the stuck check, and
#: still report "complete, no violations"
VACUOUS = [
    ({"checks": ()}, ["--checks", ","]),
    ({"requests": 0}, ["--requests", "0"]),
    ({"requests": -1}, ["--requests", "-1"]),
    ({"drop_budget": -1}, ["--drops", "-1"]),
    ({"dup_budget": -1}, ["--dups", "-1"]),
    ({"max_states": 0}, ["--max-states", "0"]),
]


@pytest.mark.parametrize(
    "opts,argv", VACUOUS, ids=[" ".join(argv) for _, argv in VACUOUS]
)
def test_a_vacuous_check_is_refused(opts, argv, capsys):
    from repro.verify.__main__ import main

    with pytest.raises(VerifyError):
        Checker(make_model("rcv", 2), **opts)
    assert main(["--algo", "rcv", "--n", "2", *argv]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and "no violations" not in out.out


def test_unknown_algorithm_and_options_raise():
    with pytest.raises(VerifyError):
        check("no-such-algo", 3)
    with pytest.raises(VerifyError):
        check("rcv", 3, model_opts={"bogus_option": 1})
    with pytest.raises(VerifyError):
        check("rcv", 3, checks=("me", "vibes"))


# ----------------------------------------------------------------------
# canon coverage: every attribute is state unless an exclusion table
# says why not, and every world construction checks those tables
# against the live node (verify/fingerprint.py)
# ----------------------------------------------------------------------
def _canon_error(model):
    with pytest.raises(FingerprintError) as err:
        World(model)
    assert "src/repro/verify/fingerprint.py" in str(err.value)
    return str(err.value)


def test_canon_guard_catches_new_node_attribute():
    """An attribute no table classifies is state: it is fingerprinted
    and every clone gets its own copy — never silently dropped."""

    class Shiny(RCVNode):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.shiny_new_state = []

    model = make_model("rcv", 3, node_cls=Shiny)
    # oracle worlds re-encode their nodes on every fingerprint()
    one, other = World(model, oracle=True), World(model, oracle=True)
    assert one.fingerprint() == other.fingerprint()
    other.nodes[0].shiny_new_state.append(1)
    assert one.fingerprint() != other.fingerprint()

    twin = model.clone_node(other.nodes[0])
    assert twin.shiny_new_state == [1]
    assert twin.shiny_new_state is not other.nodes[0].shiny_new_state
    assert model.fingerprint_node(twin) == model.fingerprint_node(other.nodes[0])


def test_value_table_copies_and_encodes_every_kind_of_value():
    from collections import deque

    from repro.baselines.quorum_base import _Grant
    from repro.core.tuples import ReqTuple
    from repro.canon import copy_value, encode_value

    grant = _Grant((3, 1), 1, 2, 7)
    value = {
        "plain": [None, True, 1, 1.5, "s", ReqTuple(0, 1)],
        "nested": [[1], {2}, deque([(3, 4)]), {"k": [5]}, frozenset({6})],
        "slotted": [grant],
    }
    copy = copy_value(value)
    assert encode_value(copy) == encode_value(value)
    for key in value:
        for mine, theirs in zip(value[key], copy[key]):
            assert type(mine) is type(theirs)
    copy["nested"][0].append(9)
    copy["nested"][3]["k"].append(9)
    copy["slotted"][0].inquired = True
    assert value["nested"][0] == [1] and value["nested"][3] == {"k": [5]}
    assert grant.inquired is False
    assert encode_value(copy) != encode_value(value)
    # equal-comparing values of different types stay distinct, and a
    # set's encoding does not depend on its iteration order
    assert len({encode_value(v) for v in (1, True, 1.0, (1,), [1])}) == 5
    assert encode_value({3, 1, 2}) == encode_value({2, 3, 1})
    hash(encode_value(value))

    class Tally(dict):
        pass

    for unsound in ((1, [2]), Tally(a=1)):  # shares a list; copy forgets its type
        with pytest.raises(FingerprintError):
            copy_value(unsound)


def test_canon_guard_refuses_a_value_it_cannot_walk():
    class Opaque:
        pass

    class Shiny(RCVNode):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.handle = Opaque()

    message = _canon_error(make_model("rcv", 3, node_cls=Shiny))
    assert "value of type Opaque" in message
    assert "VALUE_TYPES" in message


def test_canon_guard_refuses_an_attribute_that_appears_after_construction():
    world = World(make_model("ricart_agrawala", 3))
    world.nodes[1].afterthought = 0
    with pytest.raises(FingerprintError, match="'afterthought'"):
        world.execute(("request", 1))


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


_MUTEX, _RCV = "repro.mutex.base.MutexNode", "repro.core.node.RCVNode"


@pytest.mark.parametrize(
    "algo, table, change, complaint",
    [
        (
            "rcv",
            lambda: fingerprint.SYSTEMINFO_CANON,
            lambda t: t.pop("done"),
            "['done'] are in neither SYSTEMINFO_CANON nor",
        ),
        (
            "rcv",
            lambda: fingerprint.SYSTEMINFO_CANON,
            lambda t: t.update(ghost_attr="gone"),
            "['ghost_attr'] are stale entries of SYSTEMINFO_CANON",
        ),
        (
            "ricart_agrawala",
            lambda: fingerprint.NODE_EXCLUDED[_MUTEX],
            lambda t: t.update(ghost_attr="long gone"),
            f"['ghost_attr'] are stale entries of NODE_EXCLUDED['{_MUTEX}']",
        ),
        (
            "rcv",
            lambda: fingerprint.NODE_EXCLUDED[_RCV],
            lambda t: t.update(_fwd_rng=" "),
            f"['_fwd_rng'] have no justification in NODE_EXCLUDED['{_RCV}']",
        ),
        (
            "rcv",
            lambda: fingerprint.SYSTEMINFO_EXCLUDED,
            lambda t: t.update(done="also canon"),
            "['done'] are in both SYSTEMINFO_CANON and SYSTEMINFO_EXCLUDED",
        ),
    ],
    ids=["dropped", "ghost-canon", "ghost-excluded", "blank", "both"],
)
def test_canon_guard_catches_a_table_that_drifted(
    algo, table, change, complaint
):
    with mock.patch.dict(table()) as live:  # restored on the way out
        change(live)
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


def test_schedule_replays_against_every_option_the_model_was_built_with():
    """A node option travels in the settings as given, whatever its
    name: on raymond's chain 0-1-2 the token reaches node 2 in four
    hops, on the default tree (2's parent is 0) in two."""
    chain = Checker(make_model("raymond", 3, parents=[None, 0, 1]))
    settings = json.loads(json.dumps(chain.settings()))
    assert settings["model_opts"] == {"parents": [None, 0, 1]}
    steps = [{"op": "request", "arg": 2}]
    steps += [{"op": "deliver", "arg": uid} for uid in (1, 2, 3, 4)]
    steps += [{"op": "release", "arg": 2}]
    sched = {"version": 1, "settings": settings, "steps": steps}
    assert replay(sched) is None  # runs to the end, and cleanly
    del settings["model_opts"]
    with pytest.raises(VerifyError, match="not\\s+enabled"):
        replay(sched)


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
# budgets
# ----------------------------------------------------------------------
def test_budget_truncation_reported():
    result = check("rcv", 3, max_states=100)
    assert not result.complete
    assert result.truncated == "max_states"
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


def test_cli_takes_every_registry_name_and_passes_node_options_through():
    proc = _cli("--algo", "singhal", "--n", "3", "--channel", "fifo", "--json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["states"] == 694
    majority = _cli(
        "--algo", "maekawa", "--n", "3", "--quorum-system", "majority", "--json"
    )
    assert majority.returncode == 0, majority.stdout + majority.stderr
    doc = json.loads(majority.stdout)
    assert doc["settings"]["model_opts"] == {"quorum_system": "majority"}
    assert doc["states"] != STATE_PINS[("maekawa", 3, "nonfifo")][0]  # grid
    for bad in (
        ("--algo", "maekawa", "--quorum-system", "no-such-family"),
        ("--algo", "singhal", "--quorum-system", "grid"),
    ):
        refused = _cli(*bad, "--n", "3")
        assert refused.returncode == 2, refused.stdout + refused.stderr
        assert refused.stderr.startswith("error: ")


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
