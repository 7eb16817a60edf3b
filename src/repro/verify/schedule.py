"""Counterexample schedules: export, load, deterministic replay.

A schedule is a plain JSON document that pins *everything* the
engine needs to reproduce one interleaving bit-for-bit:

* the model configuration (algorithm, N, planted bug, and under
  ``model_opts`` every option the model was built with);
* the world configuration (requests per node, channel semantics,
  adversary budgets);
* the step list — one ``{op, arg, choices, note}`` entry per action,
  where ``arg`` is the node id (request/release) or the envelope uid
  (deliver/drop/dup) and ``choices`` scripts the internal rng draws;
* the violation the schedule reaches.

Replayability rests on two determinism facts: envelope uids are
assigned in execution order (so the uid an exported step names is the
uid the replay produces), and every hidden nondeterministic draw goes
through the scripted :class:`~repro.verify.world.ChoiceSource`.
:func:`replay` re-executes the steps through the production node code
and re-checks each state, so a schedule is a self-contained failing
test.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional

from repro.verify.checker import Violation, extend_ledger, state_violation
from repro.verify.errors import VerifyError
from repro.verify.models import make_model
from repro.verify.world import World, describe_action

__all__ = [
    "SCHEDULE_VERSION",
    "load_schedule",
    "replay",
    "save_schedule",
    "schedule_dict",
]

SCHEDULE_VERSION = 1

def schedule_dict(settings: dict, violation: Violation) -> dict:
    """Bundle a checker's settings and one violation as a schedule."""
    return {
        "version": SCHEDULE_VERSION,
        "settings": dict(settings),
        "violation": {
            "kind": violation.kind,
            "message": violation.message,
            "depth": violation.depth,
        },
        "steps": list(violation.steps),
    }


def save_schedule(sched: dict, path) -> None:
    Path(path).write_text(
        json.dumps(sched, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_schedule(path) -> dict:
    """The schedule stored at ``path``; a file that is not UTF-8 JSON,
    or not a JSON object, is a :class:`VerifyError` naming the file."""
    try:
        sched = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise VerifyError(f"{path} is not a schedule: {exc}") from None
    if type(sched) is not dict:
        raise VerifyError(
            f"{path} is not a schedule: it holds a JSON "
            f"{type(sched).__name__}, not an object"
        )
    if sched.get("version") != SCHEDULE_VERSION:
        raise VerifyError(
            f"schedule version {sched.get('version')!r} is not "
            f"{SCHEDULE_VERSION}"
        )
    return sched


def _world_from_settings(settings: dict) -> World:
    model = make_model(
        settings["algo"],
        settings["n"],
        planted=settings.get("planted"),
        **settings.get("model_opts", {}),
    )
    return World(
        model,
        requests=settings.get("requests", 1),
        fifo=settings.get("channel") == "fifo",
        drop_budget=settings.get("drop_budget", 0),
        dup_budget=settings.get("dup_budget", 0),
        retx=settings.get("retx", False),
        retx_broken=settings.get("retx_broken", False),
    )


def replay(sched: dict) -> Optional[Violation]:
    """Re-execute a schedule; return the first violation it reaches.

    Runs the same checks the exploration that exported the schedule
    ran (the settings record which were enabled), in the checker's
    effective order — protocol exceptions and the commit-order ledger
    fire at transition time, mutual exclusion and the whole-system
    invariants when the reached state is examined.  Returns ``None``
    if the schedule completes without any violation — i.e. it does
    NOT reproduce against this build of the protocol.
    """
    settings = sched["settings"]
    world = _world_from_settings(settings)
    checks = tuple(settings.get("checks", ("me", "lemmas", "ledger")))
    steps: List[dict] = sched["steps"]
    ledger: frozenset = frozenset()
    for depth, step in enumerate(steps, 1):
        action = (step["op"], step["arg"])
        if action not in world.enabled_actions():
            raise VerifyError(
                f"step {depth - 1} ({describe_action(world, action)}) is "
                f"not enabled at this point of the replay — the schedule "
                f"does not match this protocol build"
            )
        out = world.execute(action, script=tuple(step.get("choices", ())))
        reversal = None
        if out.error is not None:
            found = "protocol-error", f"{type(out.error).__name__}: {out.error}"
        else:
            if "ledger" in checks:
                ledger, reversal = extend_ledger(world, ledger)
            found = ("commit-order", reversal) if reversal else state_violation(
                world, checks, world.enabled_actions(), "stuck" in checks
            )
        if found:
            return Violation(*found, steps[:depth], depth)
    return None
