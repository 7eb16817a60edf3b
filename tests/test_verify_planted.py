"""Planted-bug mutation tests: the checker must *find* bugs, not
just bless correct code.

Each planted bug is a single-site AST mutation of the imported
protocol module's source, grafted onto a live ``RCVNode`` subclass.  For each one this file
asserts the full loop the ISSUE demands: the checker finds a
violation of the expected kind at the expected (minimal, BFS) depth,
and the exported schedule replays through the engine to the *same*
violation — so a counterexample is a self-contained failing test,
not a one-off observation.

The four bugs cover one violation class each:

* ``skip-release-wait``   → mutual-exclusion
* ``skip-exchange-renormalize`` → commit-order (ledger reversal)
* ``eager-done``          → stuck (wedged requesters)
* ``blind-commit``        → protocol-error (the on-top guard fires)
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.node import RCVNode
from repro.verify import check
from repro.verify.mutations import list_planted_bugs, planted_node_class
from repro.verify.schedule import (
    load_schedule,
    replay,
    save_schedule,
    schedule_dict,
)

#: bug name -> (checks to run, expected kind, expected BFS depth)
EXPECTED = {
    "skip-release-wait": (("me",), "mutual-exclusion", 6),
    "skip-exchange-renormalize": (None, "commit-order", 7),
    "eager-done": (None, "stuck", 6),
    "blind-commit": (None, "protocol-error", 5),
}


def _check_planted(name):
    checks = EXPECTED[name][0]
    kwargs = {"checks": checks} if checks else {}
    return check("rcv", 3, model_opts={"planted": name}, **kwargs)


def test_catalog_is_exactly_the_four_bugs():
    assert set(list_planted_bugs()) == set(EXPECTED)
    for summary in list_planted_bugs().values():
        assert summary  # a bug without a story is a maintenance trap


def test_planted_classes_are_real_node_subclasses():
    for name in EXPECTED:
        cls = planted_node_class(name)
        assert issubclass(cls, RCVNode)
        assert cls is not RCVNode


def test_planted_build_works_from_an_installed_layout(tmp_path):
    """The mutant is built from the source of the module that was
    imported, so the package need not sit at ``<root>/src/repro``."""
    import repro

    site = tmp_path / "site-packages"
    shutil.copytree(
        Path(repro.__file__).parent,
        site / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    script = (
        "import repro, sys\n"
        "from repro.verify.mutations import planted_node_class\n"
        "assert repro.__file__.startswith(sys.argv[1]), repro.__file__\n"
        "print(planted_node_class('eager-done').__name__)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, str(site)],
        env=dict(os.environ, PYTHONPATH=str(site)),
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "RCVNodeEagerDone"


def test_unknown_planted_bug_is_rejected():
    from repro.verify import VerifyError

    with pytest.raises(VerifyError):
        check("rcv", 3, model_opts={"planted": "no-such-bug"})


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_checker_finds_each_bug_and_replay_reproduces_it(name):
    _, kind, depth = EXPECTED[name]
    result = _check_planted(name)
    assert result.violations, f"checker missed planted bug {name}"
    violation = result.violations[0]
    assert violation.kind == kind
    assert violation.depth == depth  # BFS ⇒ minimal counterexample
    # round-trip: export the schedule, replay it cold through the
    # engine, and demand the identical violation
    sched = schedule_dict(result.to_dict()["settings"], violation)
    got = replay(sched)
    assert got is not None, f"schedule for {name} did not reproduce"
    assert (got.kind, got.depth) == (kind, depth)


def test_me_counterexample_survives_a_disk_round_trip(tmp_path):
    result = _check_planted("skip-release-wait")
    violation = result.violations[0]
    path = tmp_path / "me.json"
    save_schedule(
        schedule_dict(result.to_dict()["settings"], violation), path
    )
    got = replay(load_schedule(path))
    assert got is not None
    assert got.kind == "mutual-exclusion"
    assert got.depth == violation.depth


def test_clean_build_refutes_every_planted_schedule():
    """A planted schedule must NOT reproduce against the unmutated
    protocol (replay either refutes it or the schedule diverges) —
    otherwise the "bug" is really a bug in the shipped code."""
    from repro.verify.errors import VerifyError

    for name in sorted(EXPECTED):
        result = _check_planted(name)
        sched = schedule_dict(
            result.to_dict()["settings"], result.violations[0]
        )
        sched["settings"] = dict(sched["settings"])
        sched["settings"].pop("planted", None)
        try:
            got = replay(sched)
        except VerifyError:
            continue  # schedule diverged: also a refutation
        assert got is None, (
            f"{name}: counterexample reproduced on the CLEAN build"
        )
