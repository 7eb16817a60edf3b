"""``benchmarks/record.py`` appends one well-formed trajectory line."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_record_appends_one_line_with_its_stamp(tmp_path):
    out = tmp_path / "history.jsonl"
    out.write_text('{"earlier": "line"}\n')
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "benchmarks" / "record.py"),
            "--workload", "baselines_poisson", "--size", "toy",
            "--seconds", "0.3", "--note", "tier-1 smoke", "--out", str(out),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout
    earlier, line = out.read_text().splitlines()
    assert json.loads(earlier) == {"earlier": "line"}
    record = json.loads(line)
    assert set(record) == {
        "commit", "dirty", "python", "usable_cpus", "platform", "note",
        "size", "seconds", "workloads", "floors",
    }
    assert record["note"] == "tier-1 smoke"
    assert record["size"] == "toy" and record["floors"] is None
    assert record["usable_cpus"] >= 1
    (name, result), = record["workloads"].items()
    assert name == "baselines_poisson"
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}


def _is_a_checkout(root: Path) -> bool:
    top = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], cwd=root,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False,
    ).stdout.strip()
    return bool(top) and Path(top).resolve() == root.resolve()


def _refused_in_one_line(done, why):
    assert done.returncode == 2, done.stdout
    assert done.stdout.strip().splitlines() == [done.stdout.strip()]
    assert why in done.stdout and "Traceback" not in done.stdout


def test_pairs_against_head_store_both_sides_and_the_wins(tmp_path):
    """Inside a checkout: one pair against HEAD.  In a tree exported
    without ``.git`` (as ``--parent`` itself exports one) there is no
    HEAD to export: the refusal is one line and exit 2."""
    out = tmp_path / "history.jsonl"
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "benchmarks" / "record.py"),
            "--parent", "HEAD", "--pairs", "1",
            "--workload", "baselines_poisson", "--size", "toy",
            "--seconds", "0.3", "--out", str(out),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=300,
        env={**os.environ, "TMPDIR": str(tmp_path)},
    )
    if not _is_a_checkout(ROOT):
        _refused_in_one_line(done, "is not a git checkout")
        assert not out.exists()
        return
    assert done.returncode == 0, done.stdout
    record = json.loads(out.read_text())
    assert record["pairs"] == 1
    assert record["parent"] == record["commit"]  # HEAD is this checkout's commit
    (name, result), = record["workloads"].items()
    assert name == "baselines_poisson"
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in declared["end_to_end"]}
    for side in ("parent", "change"):
        assert set(result[side]) == metrics
        for spread in result[side].values():
            assert spread["median"] > 0 and spread["iqr"] == 0.0  # one run
    assert set(result["won"]) == set(result["ratio"]) == metrics
    assert all(won in (0, 1) for won in result["won"].values())
    assert list(tmp_path.iterdir()) == [out]  # the exported tree is gone


def test_a_parent_that_cannot_be_exported_is_refused_in_one_line(tmp_path):
    """No ``git archive`` traceback: a copy of the script in a tree
    that is no checkout, and a REV that names no commit, each exit 2
    with one line saying which."""
    copy = tmp_path / "tree" / "benchmarks" / "record.py"
    copy.parent.mkdir(parents=True)
    copy.write_text((ROOT / "benchmarks" / "record.py").read_text())
    runs = [([sys.executable, str(copy), "--parent", "HEAD"], "is not a git checkout")]
    if _is_a_checkout(ROOT):
        runs.append((
            [sys.executable, str(ROOT / "benchmarks" / "record.py"),
             "--parent", "no-such-rev-anywhere", "--pairs", "1"],
            "does not resolve to a commit",
        ))
    for command, why in runs:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=60,
        )
        _refused_in_one_line(done, why)


def test_pairs_need_a_parent():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "record.py"), "--pairs", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=60,
    )
    assert done.returncode == 2 and "--pairs" in done.stdout


def test_the_history_file_holds_whole_lines():
    """Every line of the committed trajectory parses and is full-size."""
    lines = (ROOT / "BENCH_history.jsonl").read_text().splitlines()
    assert len(lines) >= 2
    for line in lines:
        record = json.loads(line)
        assert record["size"] == "full"
        assert all(r and r["correct"] for r in record["workloads"].values())
        assert len(record["workloads"]) == 7 and len(record["floors"]) == 4
        if "pairs" in record:
            for result in record["workloads"].values():
                assert 0 <= min(result["won"].values())
                assert max(result["won"].values()) <= record["pairs"]
