"""``python -m repro.verify`` — the model checker's command line.

Exit codes: 0 — explored without violations (complete, or within an
explicit budget); 1 — at least one violation found; 2 — usage or
infrastructure error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.verify.checker import DEFAULT_CHECKS, check
from repro.verify.errors import VerifyError
from repro.verify.models import ALGORITHMS
from repro.verify.mutations import list_planted_bugs
from repro.verify.schedule import save_schedule, schedule_dict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description=(
            "Exhaustive-interleaving model checker for the protocol "
            "core (see docs/verification.md)."
        ),
    )
    parser.add_argument(
        "--algo",
        default="rcv",
        choices=ALGORITHMS,
        help="algorithm to verify: any registry name, or the echo "
        "calibration model (default: rcv)",
    )
    parser.add_argument(
        "--n", type=int, default=3, help="number of nodes (default: 3)"
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=1,
        help="CS entries per node (default: 1)",
    )
    parser.add_argument(
        "--channel",
        default="nonfifo",
        choices=("nonfifo", "fifo"),
        help="delivery semantics (default: nonfifo — any in-flight "
        "message may arrive next)",
    )
    parser.add_argument(
        "--drops",
        type=int,
        default=0,
        metavar="K",
        help="adversary may drop up to K messages (default: 0; "
        "disables the stuck check unless --retx is given)",
    )
    parser.add_argument(
        "--dups",
        type=int,
        default=0,
        metavar="K",
        help="adversary may duplicate up to K messages (default: 0)",
    )
    parser.add_argument(
        "--retx",
        action="store_true",
        help="model the reliable (ack/retransmit) channel: dropped "
        "messages are retransmitted, duplicates are deduped on "
        "receive, and the stuck check stays armed under --drops",
    )
    parser.add_argument(
        "--broken-retx",
        action="store_true",
        help="plant the skip-retransmit-on-timeout transport mutant "
        "(drops become permanent again; requires --retx)",
    )
    parser.add_argument(
        "--search",
        default="bfs",
        choices=("bfs", "dfs"),
        help="exploration order (bfs yields shortest counterexamples)",
    )
    parser.add_argument(
        "--reduce",
        default="sleep",
        choices=("sleep", "none"),
        help="partial-order reduction (sleep sets prune commuting "
        "transitions; reachable states are identical either way)",
    )
    parser.add_argument(
        "--symmetry",
        action="store_true",
        help="canonicalize states under node relabeling (only sound "
        "for id-equivariant models, e.g. --algo echo)",
    )
    parser.add_argument(
        "--max-states", type=int, default=None, help="state budget"
    )
    parser.add_argument(
        "--max-depth", type=int, default=None, help="depth budget"
    )
    parser.add_argument(
        "--checks",
        default=",".join(DEFAULT_CHECKS),
        metavar="CHECK[,CHECK...]",
        help=f"per-state checks to run (default: {','.join(DEFAULT_CHECKS)})",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="collect every violation instead of stopping at the first",
    )
    parser.add_argument(
        "--rcv-rule",
        default="strict",
        choices=("strict", "paper"),
        help="RCV commit rule (rcv only; default: strict)",
    )
    parser.add_argument(
        "--forwarding",
        default="random",
        help="RCV forwarding policy (rcv only; default: random)",
    )
    parser.add_argument(
        "--on-inconsistency",
        default="raise",
        help="RCV exchange divergence policy (rcv only; default: raise)",
    )
    parser.add_argument(
        "--quorum-system",
        default=None,
        help="quorum family, passed to the algorithm's node class "
        "(maekawa: grid, fpp, majority; default: the class's own)",
    )
    parser.add_argument(
        "--planted-bug",
        default=None,
        metavar="NAME",
        help="overlay a known-bad mutant (rcv only; see "
        "--list-planted-bugs)",
    )
    parser.add_argument(
        "--list-planted-bugs",
        action="store_true",
        help="list planted-bug names and exit",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable report to stdout",
    )
    parser.add_argument(
        "--save-trace",
        default=None,
        metavar="PATH",
        help="write the first violation's replayable schedule to PATH",
    )
    args = parser.parse_args(argv)

    if args.list_planted_bugs:
        for name, summary in sorted(list_planted_bugs().items()):
            print(f"{name:>28}  {summary}")
        return 0

    model_opts = {}
    if args.algo == "rcv":
        model_opts = {
            "rule": args.rcv_rule,
            "forwarding": args.forwarding,
            "on_inconsistency": args.on_inconsistency,
        }
    if args.planted_bug:
        model_opts["planted"] = args.planted_bug
    if args.quorum_system is not None:
        model_opts["quorum_system"] = args.quorum_system

    checks = tuple(
        part.strip() for part in args.checks.split(",") if part.strip()
    )
    try:
        result = check(
            args.algo,
            args.n,
            model_opts=model_opts,
            requests=args.requests,
            fifo=args.channel == "fifo",
            drop_budget=args.drops,
            dup_budget=args.dups,
            retx=args.retx,
            retx_broken=args.broken_retx,
            checks=checks,
            reduce=args.reduce,
            symmetry=args.symmetry,
            search=args.search,
            max_states=args.max_states,
            max_depth=args.max_depth,
            stop_on_first=not args.keep_going,
        )
    except VerifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = result.to_dict()
    if args.save_trace and result.violations:
        sched = schedule_dict(report["settings"], result.violations[0])
        save_schedule(sched, args.save_trace)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        s = report["settings"]
        if result.complete:
            scope = "complete"
        elif result.violations:
            scope = "stopped at first violation"
        else:
            scope = "TRUNCATED (budget hit)"
        print(
            f"repro.verify: {s['algo']} n={s['n']} "
            f"requests={s['requests']} channel={s['channel']} "
            f"checks={','.join(s['checks'])}"
        )
        print(
            f"  {result.states} states, {result.transitions} transitions "
            f"in {result.elapsed:.2f}s "
            f"({result.states_per_sec:.0f} states/s), "
            f"max depth {result.max_depth_seen}, {scope}"
        )
        for v in result.violations:
            print(f"  VIOLATION [{v.kind}] at depth {v.depth}: {v.message}")
            for step in v.steps:
                print(f"    {step['note']}")
        if args.save_trace and result.violations:
            print(f"  schedule written to {Path(args.save_trace)}")
        if not result.violations:
            print("  no violations")
    if result.violations:
        return 1
    return 0 if result.complete else 2


if __name__ == "__main__":
    sys.exit(main())
