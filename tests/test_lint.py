"""The static-analysis subsystem (``python -m repro.lint``).

Covers, per docs/static-analysis.md:

* the pragma grammar (inline and standalone, required justification);
* each rule against a purpose-built fixture tree
  (``tests/lint_fixtures/``) or source overlays on the real tree;
* mutation-proofing — programmatically breaking each guarded
  invariant in an overlay and asserting the rule catches it;
* the self-check: the shipped tree lints clean;
* the CLI contract (exit codes, ``--json`` shape).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.experiments.spec import CellSpec
from repro.lint import run_lint
from repro.lint.pragmas import parse_pragmas
from repro.lint.rules.cache_key import identity_violations

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "lint_fixtures"

CELLSPEC_FIELDS = tuple(f.name for f in fields(CellSpec))
_DEFAULTS = CellSpec("rcv", 6, 0, ("burst", 1))


def _lines(report, rule, path_suffix=None):
    return [
        f.line
        for f in report.findings
        if f.rule == rule
        and (path_suffix is None or f.path.endswith(path_suffix))
    ]


# ----------------------------------------------------------------------
# pragma grammar
# ----------------------------------------------------------------------
def test_pragma_inline_covers_its_own_line():
    parse = parse_pragmas(
        "x = wall()  # repro-lint: allow(determinism) -- display only\n"
    )
    assert not parse.errors
    assert parse.pragmas[1].rules == ("determinism",)
    assert parse.pragmas[1].reason == "display only"


def test_pragma_standalone_covers_the_next_line():
    parse = parse_pragmas(
        "# repro-lint: allow(determinism, cache-key) -- both\n"
        "x = wall()\n"
    )
    assert not parse.errors
    assert 1 not in parse.pragmas
    assert parse.pragmas[2].rules == ("determinism", "cache-key")
    assert parse.pragmas[2].standalone


def test_pragma_requires_justification():
    parse = parse_pragmas("x = 1  # repro-lint: allow(determinism) --\n")
    assert not parse.pragmas
    assert parse.errors and "justification" in parse.errors[0][1]


def test_pragma_malformed_mention_is_an_error():
    parse = parse_pragmas("x = 1  # repro-lint: allow everything please\n")
    assert not parse.pragmas
    assert parse.errors and "not a valid pragma" in parse.errors[0][1]


def test_pragma_never_parsed_out_of_string_literals():
    parse = parse_pragmas(
        'doc = "# repro-lint: allow(determinism) -- not a comment"\n'
    )
    assert not parse.pragmas
    assert not parse.errors


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_determinism_fixture_flags_core_hazards():
    report = run_lint(FIXTURES / "determinism", select=["determinism"])
    core = _lines(report, "determinism", "sim/bad_clock.py")
    # wall, timer-in-core, entropy, global draw, aliased ad-hoc Random
    assert core == [12, 16, 20, 24, 28]


def test_determinism_spawn_seeded_random_is_allowed():
    report = run_lint(FIXTURES / "determinism", select=["determinism"])
    assert 32 not in _lines(report, "determinism", "sim/bad_clock.py")


def test_determinism_operational_layer_policy():
    report = run_lint(FIXTURES / "determinism", select=["determinism"])
    ops = _lines(report, "determinism", "experiments/ops_clock.py")
    assert ops == [16]  # naked wall clock; monotonic + pragma'd are fine
    assert any(
        f.path.endswith("ops_clock.py") and f.line == 12
        for f in report.suppressed
    )


# ----------------------------------------------------------------------
# cache-key (mutation-proof): a runtime guard, so the mutants are
# CellSpec subclasses that let one field slip
# ----------------------------------------------------------------------
def _forgets(method_name: str, field_name: str):
    """A CellSpec whose ``method_name`` ignores ``field_name``."""
    real = getattr(CellSpec, method_name)

    def forgetful(self):
        return real(
            replace(self, **{field_name: getattr(_DEFAULTS, field_name)})
        )

    return type("Forgetful", (CellSpec,), {method_name: forgetful})


@pytest.mark.parametrize("field_name", CELLSPEC_FIELDS)
def test_cache_key_rule_catches_any_dropped_canon_field(field_name):
    messages = list(identity_violations(_forgets("cache_key", field_name)))
    assert any(
        f"{field_name!r} does not reach cache_key" in m for m in messages
    ), messages


def test_cache_key_rule_catches_dropped_doc_field():
    class Renamed(CellSpec):
        def document(self):
            doc = CellSpec.document(self)
            doc["work_load"] = doc.pop("workload")
            return doc

    messages = " | ".join(identity_violations(Renamed))
    assert "'work_load'" in messages and "are not the CellSpec fields" in messages
    messages = " | ".join(identity_violations(_forgets("document", "workload")))
    assert "'workload' does not reach the embedded cell document" in messages


def test_cache_key_rule_reports_through_the_linter(monkeypatch):
    monkeypatch.setattr(
        CellSpec, "cache_key", _forgets("cache_key", "retx").cache_key
    )
    report = run_lint(ROOT, select=["cache-key"])
    assert [f.rule for f in report.findings] == ["cache-key"]
    assert "'retx' does not reach cache_key" in report.findings[0].message


# ----------------------------------------------------------------------
# pragma hygiene + parse errors
# ----------------------------------------------------------------------
def test_stale_pragma_is_flagged_on_full_runs():
    overlay = {
        "src/repro/experiments/fake.py": (
            "x = 1  # repro-lint: allow(determinism) -- suppresses nothing\n"
        )
    }
    report = run_lint(ROOT, overlay=overlay)
    assert any(
        f.rule == "pragma"
        and f.path.endswith("fake.py")
        and "suppresses nothing" in f.message
        for f in report.findings
    )


def test_unknown_rule_in_pragma_is_flagged():
    overlay = {
        "src/repro/experiments/fake.py": (
            "import time\n"
            "x = time.time()  # repro-lint: allow(detreminism) -- typo\n"
        )
    }
    report = run_lint(ROOT, select=["determinism"], overlay=overlay)
    assert any(
        f.rule == "pragma" and "unknown rule" in f.message
        for f in report.findings
    )
    # and the typo'd pragma must NOT have suppressed the violation
    assert any(
        f.rule == "determinism" and f.path.endswith("fake.py")
        for f in report.findings
    )


def test_unparseable_file_is_reported_not_crashed():
    overlay = {"src/repro/experiments/fake.py": "def broken(:\n"}
    report = run_lint(ROOT, select=["determinism"], overlay=overlay)
    assert any(f.rule == "parse" for f in report.findings)


# ----------------------------------------------------------------------
# self-check + CLI
# ----------------------------------------------------------------------
def test_shipped_tree_lints_clean():
    report = run_lint(ROOT)
    assert report.ok, "\n".join(f.render() for f in report.findings)
    # every suppression in the tree carries a recorded justification;
    # all three are wall-clock sites in the operational layers
    assert {f.rule for f in report.suppressed} == {"determinism"}
    assert len(report.suppressed) == 3


def _cli(*args, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_clean_tree_exits_zero_with_json(tmp_path):
    out = tmp_path / "findings.json"
    proc = _cli("--json", "--output", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["ok"] is True and doc["version"] == 1
    assert json.loads(out.read_text())["ok"] is True


def test_cli_findings_exit_one():
    proc = _cli(
        "--root",
        str(FIXTURES / "determinism"),
        "--select",
        "determinism",
    )
    assert proc.returncode == 1
    assert "determinism" in proc.stdout


def test_cli_unknown_rule_exits_two():
    proc = _cli("--select", "no-such-rule")
    assert proc.returncode == 2


def test_cli_list_rules_names_exactly_the_three():
    proc = _cli("--list-rules")
    assert proc.returncode == 0
    assert [line.split()[0] for line in proc.stdout.splitlines()] == [
        "cache-key",
        "determinism",
    ]
