"""Smoke test of the benchmark suite: every workload at toy size.

Collected by the tier-1 run (``python -m pytest`` from the repository
root).  Checks the contract between ``BENCHMARK.json`` and what
``run.py`` prints — every declared metric emitted with its unit, none
undeclared — plus the failure path (a planted golden mismatch must
fail the run) and the trace file's shape.  No assertion is on a
timing.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parents[1]
ROOT = SUITE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_run():
    spec = importlib.util.spec_from_file_location("suite_run", SUITE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()
run._load_program()
import workloads  # noqa: E402  (importable once run.py has set sys.path)

WORKLOADS = list(workloads.WORKLOADS)


def _invoke(capsys, *argv):
    """``run.main(argv)`` -> (exit code, result document, stdout)."""
    code = run.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


def _toy(capsys, workload, *extra):
    return _invoke(
        capsys, "--workload", workload, "--size", "toy", "--seconds", "0.3", *extra
    )


def test_declaration_is_within_the_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert DECLARED["paths"] == ["benchmarks/suite"]
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    names = [
        m["name"]
        for group in ("workloads", "end_to_end", "per_layer")
        for m in DECLARED[group]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_declared_workloads_come_from_the_generator():
    # BENCHMARK.json declares the workloads the driver runs; the other
    # generated ones are run by name (README, "Workloads")
    declared = [w["name"] for w in DECLARED["workloads"]]
    assert declared == [name for name in WORKLOADS if name in declared]
    # a pair that stresses disjoint layers is always among them
    assert {"burst_scale", "baselines_poisson"} <= set(declared)
    with pytest.raises(workloads.UnknownWorkloadError):
        run.main(["--workload", "no_such_workload"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(capsys, workload):
    code, result, out = _toy(capsys, workload)
    assert code == 0, out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in expected:  # printed by name, with its unit
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {expected[name]}$", out, re.M)


# one workload of each shape; campaign_served is the one that reaches
# every experiments.* layer
@pytest.mark.parametrize("workload", ["burst_scale", "campaign_served", "verify_n3"])
def test_traced_run_emits_every_per_layer_metric(capsys, workload):
    code, result, out = _toy(capsys, workload, "--trace", "1")
    assert code == 0, out
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected

    spans = [
        json.loads(line)
        for line in (SUITE / "out" / f"trace-{workload}.jsonl").read_text().splitlines()
    ]
    assert spans and len(spans) == result["metrics"]["trace.spans"]["value"]
    for index, span in enumerate(spans):
        assert span["id"] == index and span["end"] >= span["start"]
        assert -1 <= span["parent"] < index  # a parent starts first, so it is present
    own = {
        name[: -len(".self_s")]: m["value"]
        for name, m in result["metrics"].items()
        if name.endswith(".self_s")
    }
    entered = {span["layer"] for span in spans}
    assert entered == {layer for layer, seconds in own.items() if seconds > 0}
    if workload == "burst_scale":
        assert not entered & {"baselines", "verify", "experiments.service"}
    if workload == "campaign_served":
        assert max(own, key=own.get) == "experiments.service"
    if workload == "verify_n3":
        assert entered == {"verify", "core.node", "core.exchange", "core.order",
                           "core.state"}


def test_planted_golden_mismatch_fails_the_run(capsys, tmp_path, monkeypatch):
    import golden

    document = json.loads(golden.PATH.read_text())
    unit = "rcv/n12/burst1/constant-5/s0"  # burst_scale's first toy cell
    assert unit in document["outputs"]
    document["outputs"][unit] = "0" * 16
    planted = tmp_path / "golden.json"
    planted.write_text(json.dumps(document))
    monkeypatch.setattr(golden, "PATH", planted)

    code, result, out = _toy(capsys, "burst_scale")
    assert code != 0
    assert not result["correct"] and result["failed"] == 1
    assert f"FAILED {unit}: output" in out
