"""Model-checker benchmark — reachable-state counts and exploration
throughput.

Unlike the simulation benches, the headline numbers here are not
timings: the **reachable-state and transition counts** per
(algorithm × N × channel) configuration are exact, deterministic
outputs of the protocol semantics — the same role the message-count
columns play for the paper figures.  A diff in a state count means
the protocol's behaviour changed (or the checker's canonicalization
broke); wall time and states/sec are reported alongside as the
machine-dependent throughput measure, next to the parent commit's
(``--parent-src``) on the rows it can check.  Every registry
algorithm has its rows, each with the verdict it is expected to come
back with (lamport without FIFO: a mutual-exclusion counterexample),
and the **mutation score** — planted mutants caught out of planted —
records the checker's strength.

Also exercised: the soundness cross-checks that make the counts
trustworthy — sleep-set reduction must leave the reachable set
untouched, and the fast copy-on-write cloner must agree with the
``copy.deepcopy`` oracle.

Run as a script to (re)generate ``BENCH_verify.json``::

    PYTHONPATH=src python benchmarks/bench_verify.py --json BENCH_verify.json \\
        [--parent-src /path/to/parent-checkout/src]

or as a pytest smoke (small configs only)::

    PYTHONPATH=src python -m pytest benchmarks/bench_verify.py -q
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from repro.registry import algorithm_names, get_algorithm
from repro.verify import check
from repro.verify.mutations import list_planted_bugs

#: what each configuration is expected to come back as
CLEAN, REFUTED, FRONTIER = "clean", "violation", "clean-frontier"


def configs():
    """Every registry algorithm (a second name for an already listed
    class is skipped) under both channels at N=3 — except lamport,
    whose FIFO space exceeds 300k states at N=3 (N=2 exhaustive plus a
    budgeted N=3 frontier) and which non-FIFO delivery refutes."""
    names = {get_algorithm(n).algorithm_name for n in algorithm_names()}
    for algo in sorted(names):
        if algo == "lamport":
            yield algo, 2, "fifo", CLEAN, {}
            yield algo, 3, "fifo", FRONTIER, {"max_states": 20000}
            yield algo, 2, "nonfifo", REFUTED, {}
        else:
            yield algo, 3, "nonfifo", CLEAN, {}
            yield algo, 3, "fifo", CLEAN, {}


#: parent/this pairs of a side-by-side: the fewest that "better on
#: nine of ten" can be read off
ROUNDS = 10

#: run in a fresh interpreter against either tree: best-of-3 states/s
#: (CPU time) per (algo, n, channel) given, as one JSON list — null
#: where that tree cannot check the configuration
_SPEED_SCRIPT = """
import json, sys, time
from repro.verify import VerifyError, check
check("rcv", 2)
out = []
for algo, n, channel in json.loads(sys.argv[1]):
    best = None
    try:
        for _ in range(3):
            t0 = time.process_time()
            result = check(algo, n, fifo=channel == "fifo")
            took = time.process_time() - t0
            best = took if best is None else min(best, took)
    except VerifyError:
        out.append(None)
    else:
        out.append(round(result.states / best))
print(json.dumps(out))
"""


def _speeds(src, rows) -> list:
    out = subprocess.run(
        [sys.executable, "-c", _SPEED_SCRIPT, json.dumps(rows)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def side_by_side(parent_src) -> dict:
    """Checker speed against a checkout of the parent commit, same
    host, same session, on every exhaustive row of :func:`configs` the
    parent can check: ``ROUNDS`` pairs of fresh interpreters,
    alternating which tree goes first; the median of each side."""
    here = Path(__file__).resolve().parent.parent / "src"
    exhaustive = [cfg[:3] for cfg in configs() if cfg[3] == CLEAN]
    # one discarded parent run says which rows it can check
    shared = [
        cfg
        for cfg, speed in zip(exhaustive, _speeds(parent_src, exhaustive))
        if speed is not None
    ]
    samples = {"parent": [], "this": []}
    for i in range(ROUNDS):
        for side in ("parent", "this") if i % 2 == 0 else ("this", "parent"):
            samples[side].append(
                _speeds(parent_src if side == "parent" else here, shared)
            )
    rows = []
    for k, (algo, n, channel) in enumerate(shared):
        parent = statistics.median(run[k] for run in samples["parent"])
        this = statistics.median(run[k] for run in samples["this"])
        wins = sum(
            t[k] > p[k] for p, t in zip(samples["parent"], samples["this"])
        )
        rows.append({
            "algo": algo, "n": n, "channel": channel,
            "parent_states_per_sec": round(parent),
            "states_per_sec": round(this),
            "over_parent": round(this / parent, 2),
            "pairs_won": f"{wins}/{ROUNDS}",
        })
    return {
        "method": (
            f"{ROUNDS} alternating pairs of fresh interpreters; each "
            "sample is the best of 3 exhaustive runs, CPU time; medians"
        ),
        "rows": rows,
    }


def _cell(algo, n, channel, expected=CLEAN, opts=(), repeat=1) -> dict:
    runs = [
        check(algo, n, fifo=channel == "fifo", **dict(opts))
        for _ in range(repeat)
    ]
    result = min(runs, key=lambda r: r.elapsed)
    cell = {
        "algo": algo,
        "n": n,
        "channel": channel,
        "states": result.states,
        "transitions": result.transitions,
        "max_depth": result.max_depth_seen,
        "complete": result.complete,
        "violations": len(result.violations),
        "expected": expected,
        "as_expected": {
            CLEAN: result.ok,
            FRONTIER: not result.violations and bool(result.truncated),
            REFUTED: bool(result.violations),
        }[expected],
        "seconds": round(result.elapsed, 3),
        "states_per_sec": round(result.states_per_sec),
    }
    if result.violations:
        first = result.violations[0]
        cell["violation"] = {"kind": first.kind, "depth": first.depth}
    return cell


def mutation_score() -> dict:
    """Checker strength: the planted mutants it catches.  The four
    RCV protocol mutants at N=3 under the default checks, and the
    broken-retransmit transport mutant at N=2."""
    runs = {
        name: check("rcv", 3, model_opts={"planted": name})
        for name in sorted(list_planted_bugs())
    }
    runs["broken-retx"] = check(
        "rcv", 2, drop_budget=1, retx=True, retx_broken=True
    )
    mutants = [
        {
            "mutant": name,
            "caught": bool(result.violations),
            "kind": result.violations[0].kind if result.violations else None,
            "depth": result.violations[0].depth if result.violations else None,
            "states": result.states,
        }
        for name, result in runs.items()
    ]
    caught = sum(m["caught"] for m in mutants)
    return {
        "planted": len(mutants),
        "caught": caught,
        "score": round(caught / len(mutants), 3),
        "mutants": mutants,
    }


def build_report(parent_src=None) -> dict:
    cells = [
        _cell(*cfg, repeat=3 if cfg[1] == 3 and cfg[0] != "lamport" else 1)
        for cfg in configs()
    ]
    # soundness cross-checks at a size where the oracle is affordable
    sleep = check("rcv", 2, reduce="sleep")
    full = check("rcv", 2, reduce="none")
    oracle = check("rcv", 2, oracle=True)
    report = {
        "bench": (
            "bench_verify — exhaustive state-space exploration per "
            "(algorithm x N x channel); counts are deterministic "
            "protocol outputs, seconds are machine-dependent (best of "
            "three runs per N=3 row)"
        ),
        "configs": cells,
        "mutation": mutation_score(),
        "soundness": {
            "sleep_states": sleep.states,
            "full_states": full.states,
            "sleep_preserves_states": sleep.states == full.states,
            "sleep_transitions": sleep.transitions,
            "full_transitions": full.transitions,
            "oracle_states": oracle.states,
            "fast_matches_oracle": (sleep.states, sleep.transitions)
            == (oracle.states, oracle.transitions),
        },
    }
    if parent_src is not None:
        report["speed_vs_parent"] = side_by_side(parent_src)
    return report


# ----------------------------------------------------------------------
# pytest smoke
# ----------------------------------------------------------------------
def test_verify_bench_smoke():
    cell = _cell("rcv", 2, "nonfifo")
    assert cell["complete"] and cell["violations"] == 0
    assert cell["states"] == 45 and cell["transitions"] == 47
    # identical counts on a re-run: the bench is deterministic
    again = _cell("rcv", 2, "nonfifo")
    assert (cell["states"], cell["transitions"], cell["max_depth"]) == (
        again["states"],
        again["transitions"],
        again["max_depth"],
    )


def test_verify_bench_covers_the_registry_once():
    rows = list(configs())
    classes = {get_algorithm(name) for name in algorithm_names()}
    assert {get_algorithm(row[0]) for row in rows} == classes
    assert len({row[:3] for row in rows}) == len(rows)
    refuted = _cell("lamport", 2, "nonfifo", REFUTED)
    assert refuted["as_expected"] and not refuted["complete"]
    assert refuted["violation"] == {"kind": "mutual-exclusion", "depth": 6}


def test_verify_bench_soundness_block():
    # build_report() is too slow for a smoke; spot-check the
    # soundness comparisons at N=2
    sleep = check("rcv", 2, reduce="sleep")
    full = check("rcv", 2, reduce="none")
    assert sleep.states == full.states
    assert sleep.transitions <= full.transitions


def _render(report: dict) -> str:
    lines = [report["bench"]]
    lines.append(
        f"{'algo':>16} {'n':>2} {'channel':>8} {'states':>8} "
        f"{'trans':>8} {'depth':>5} {'s':>7} {'st/s':>8}  scope"
    )
    for c in report["configs"]:
        scope = "complete" if c["complete"] else "TRUNCATED"
        if c["violations"]:
            v = c["violation"]
            scope = f"VIOLATION {v['kind']} @ depth {v['depth']}"
        if not c["as_expected"]:
            scope += f"  (EXPECTED {c['expected']})"
        lines.append(
            f"{c['algo']:>16} {c['n']:>2} {c['channel']:>8} "
            f"{c['states']:>8,} {c['transitions']:>8,} "
            f"{c['max_depth']:>5} {c['seconds']:>7.2f} "
            f"{c['states_per_sec']:>8,}  {scope}"
        )
    for r in report.get("speed_vs_parent", {}).get("rows", ()):
        lines.append(
            f"states/s vs parent: {r['algo']:>16} {r['channel']:>8} "
            f"{r['parent_states_per_sec']:>7,} -> {r['states_per_sec']:>7,} "
            f"({r['over_parent']}x, {r['pairs_won']} pairs won)"
        )
    m = report["mutation"]
    lines.append(
        f"mutation score: {m['caught']}/{m['planted']} planted mutants "
        "caught (" + ", ".join(
            f"{x['mutant']}: {x['kind']} @ {x['depth']}" for x in m["mutants"]
        ) + ")"
    )
    s = report["soundness"]
    lines.append(
        "soundness: sleep preserves states="
        f"{s['sleep_preserves_states']} "
        f"({s['sleep_states']} states, {s['sleep_transitions']} vs "
        f"{s['full_transitions']} transitions); "
        f"fast cloner matches deepcopy oracle={s['fast_matches_oracle']}"
    )
    return "\n".join(lines)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the report as JSON",
    )
    parser.add_argument(
        "--parent-src", metavar="DIR", default=None,
        help="src/ of a checkout of the parent commit: also record "
        "states/s side by side on the configurations it can check",
    )
    args = parser.parse_args(argv)
    report = build_report(args.parent_src)
    print(_render(report))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
