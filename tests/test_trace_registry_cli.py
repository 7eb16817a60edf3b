"""Tests for the trace recorder, algorithm registry, and CLI."""

import json

import pytest

from repro import registry
from repro.cli import build_parser, main
from repro.engine import Engine, run_scenario
from repro.metrics.io import result_to_dict
from repro.registry import (
    algorithm_names,
    get_algorithm,
    register_algorithm,
)
from repro.trace import TraceRecorder
from repro.workload import BurstArrivals, Scenario


# ----------------------------------------------------------------------
# trace recorder
# ----------------------------------------------------------------------
def _traced_run(n=4, algorithm="rcv"):
    engine = Engine(
        Scenario(algorithm=algorithm, n_nodes=n, arrivals=BurstArrivals(), seed=0)
    )
    rec = TraceRecorder(engine)
    return engine.run(), rec


def test_recorder_captures_sends_and_lifecycle():
    result, rec = _traced_run()
    sends = rec.filter(category="send")
    grants = rec.filter(category="grant")
    releases = rec.filter(category="release")
    assert len(sends) == result.messages_total
    assert len(grants) == result.completed_count
    assert len(releases) == result.completed_count


def test_recorder_filters_compose():
    _, rec = _traced_run()
    ems = rec.filter(kind="EM")
    assert ems and all(e.kind == "EM" for e in ems)
    node0 = rec.filter(node=0)
    assert all(e.src == 0 or e.dst == 0 for e in node0)


def test_recorder_render_and_jsonl():
    _, rec = _traced_run(n=3)
    text = rec.render(limit=5)
    assert len(text.splitlines()) == 5
    lines = rec.to_jsonl().splitlines()
    assert len(lines) == len(rec)
    parsed = json.loads(lines[0])
    assert {"time", "category"} <= set(parsed)


def test_events_are_time_ordered():
    _, rec = _traced_run(n=5)
    times = [e.time for e in rec.events]
    assert times == sorted(times)


@pytest.mark.parametrize("algorithm", algorithm_names())
def test_attaching_a_recorder_changes_no_result(algorithm):
    """The recorder's network tap and hook listeners only observe: the
    traced run's whole result is the untraced run's."""
    result, rec = _traced_run(n=5, algorithm=algorithm)
    untraced = run_scenario(
        Scenario(algorithm=algorithm, n_nodes=5, arrivals=BurstArrivals(), seed=0)
    )
    assert result_to_dict(result) == result_to_dict(untraced)
    assert len(rec.filter(category="grant")) == result.completed_count == 5
    assert len(rec.filter(category="send")) == result.messages_total


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_aliases_resolve_to_same_factory():
    assert get_algorithm("broadcast") is get_algorithm("suzuki_kasami")
    assert get_algorithm("tree_quorum") is get_algorithm("agrawal_elabbadi")


def test_unknown_algorithm_lists_known():
    with pytest.raises(KeyError, match="rcv"):
        get_algorithm("definitely-not-real")


def test_register_custom_overrides(monkeypatch):
    # A copy of the registry, so the sentinel never reaches a later
    # test that runs every registered algorithm.
    monkeypatch.setattr(registry, "ALGORITHMS", dict(registry.ALGORITHMS))
    sentinel = object()
    register_algorithm("custom-x", lambda *a, **k: sentinel)
    assert get_algorithm("custom-x")(0, 1, None, None) is sentinel
    assert "custom-x" in algorithm_names()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "rcv" in out and "maekawa" in out


def test_cli_run_burst(capsys):
    assert main(["run", "--algorithm", "rcv", "--nodes", "6"]) == 0
    out = capsys.readouterr().out
    assert "completed: 6" in out
    assert "nme" in out


def test_cli_run_poisson(capsys):
    code = main(
        [
            "run",
            "--algorithm",
            "broadcast",
            "--nodes",
            "5",
            "--workload",
            "poisson",
            "--rate",
            "0.05",
            "--horizon",
            "1000",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    assert "completed" in capsys.readouterr().out


def test_cli_run_with_trace(capsys):
    assert main(["run", "--nodes", "4", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "->" in out and "events total" in out


def test_cli_parser_rejects_unknown_algorithm():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--algorithm", "nope"])


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
