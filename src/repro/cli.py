"""Command-line interface.

::

    repro-mutex fig4 [--paper-scale] [--seeds K] [--chart] [--save PATH]
    repro-mutex fig5 ...
    repro-mutex fig6 ...
    repro-mutex fig7 ...
    repro-mutex theory
    repro-mutex campaign [--n-values 50 100 150 200] [--steal]
                 [--backend dir|sqlite|http] [--server URL]
    repro-mutex cell-server [--port 8400] [--store dir:PATH]
    repro-mutex campaign-status --server URL
    repro-mutex run --algorithm rcv --nodes 20 --workload burst
    repro-mutex verify --algo rcv --n 3
    repro-mutex list

``--paper-scale`` restores the paper's full parameters (N up to 50,
100 000 time-unit horizon) at the cost of minutes of runtime; the
default is a faster sweep whose curves have the same shape.  The
figure commands run their cells through the same ``run_cells`` the
campaigns use, over a process pool sized to the CPUs available (none
on a one-CPU host); the numbers do not depend on it.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.registry import algorithm_names

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """The argparse ``type`` of every count-like flag: an int >= 1,
    else a usage error (exit 2) naming the flag and the value — not an
    empty campaign, a silently single process, or a traceback."""
    value = int(text)  # ValueError: argparse's own "invalid ... value"
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _positive_finite(text: str) -> float:
    """``--lease-ttl`` (the values ``run_cells`` and the wire accept),
    ``--rate`` and ``--horizon`` (a NaN horizon is a run that never
    reaches it): a finite float > 0, else a usage error as above."""
    value = float(text)
    if not 0 < value < float("inf"):  # NaN fails both
        raise argparse.ArgumentTypeError(
            f"expected a finite number > 0, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.spec import AXES

    parser = argparse.ArgumentParser(
        prog="repro-mutex",
        description=(
            "Reproduction of Cao et al. (IPDPS 2004), 'An Efficient "
            "Distributed Mutual Exclusion Algorithm Based on Relative "
            "Consensus Voting'"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for fig in ("fig4", "fig5", "fig6", "fig7"):
        p = sub.add_parser(fig, help=f"regenerate the paper's {fig}")
        p.add_argument(
            "--seeds", type=_positive_int, default=3, help="repeats per point"
        )
        p.add_argument(
            "--paper-scale",
            action="store_true",
            help="full paper parameters (slower)",
        )
        p.add_argument(
            "--chart",
            action="store_true",
            help="render an ASCII line chart instead of the table",
        )
        p.add_argument(
            "--save",
            metavar="PATH",
            default=None,
            help="also write the raw per-run results as JSON",
        )

    sub.add_parser("theory", help="measured vs closed-form table (§6.1)")

    camp = sub.add_parser(
        "campaign",
        help="run a resumable scale campaign (N=50..200) with a cell cache",
    )
    camp.add_argument(
        "--algorithms",
        nargs="+",
        default=["rcv", "maekawa"],
        choices=algorithm_names(),
        help="algorithms to sweep",
    )
    camp.add_argument(
        "--n-values",
        nargs="+",
        type=_positive_int,
        default=None,
        help="node counts (default: 50 100 150 200)",
    )
    camp.add_argument(
        "--seeds", type=_positive_int, default=3, help="repeats per point"
    )
    camp.add_argument(
        "--requests-per-node",
        type=_positive_int,
        default=1,
        help="burst size per node (the heavy-load table uses 3)",
    )
    camp.add_argument(
        "--delay-spec",
        default="constant:5",
        help=f"delay model: {AXES['delay'].text.grammar}",
    )
    camp.add_argument(
        "--cs-spec",
        default="constant:10",
        help=f"cs-time: {AXES['cs_time'].text.grammar}",
    )
    camp.add_argument(
        "--fault-spec",
        action="append",
        default=[],
        metavar="SPEC",
        help=(
            "adversarial-network fault, repeatable and composable: "
            f"{AXES['faults'].text.grammar} (partition: the first K "
            "nodes vs the rest, resolved per N; recover: revive a "
            "node crashed earlier in the same spec — it rejoins and "
            "resyncs, see docs/faults.md, Recovery). A cell that "
            "loses liveness under faults is a result with completion "
            "< 1, not an error — see docs/faults.md"
        ),
    )
    camp.add_argument(
        "--retx",
        metavar=AXES["retx"].text.grammar,
        default=None,
        help=(
            "enable the reliable (ack/retransmit) channel: first "
            "retransmit after RTO simulated time units, timeout "
            "multiplied by BACKOFF per retry (default 2.0; 1.0 = "
            "constant timer), at most MAX retries per message "
            "(default 10). Flattens the fault grid's completion-rate "
            "cliff — docs/faults.md, Recovery"
        ),
    )
    camp.add_argument(
        "--out",
        metavar="DIR",
        default="campaign-out",
        help="output directory (cell cache, raw results, summary.md)",
    )
    camp.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="process-pool size (default: one per CPU)",
    )
    camp.add_argument(
        "--backend",
        choices=("dir", "sqlite", "http"),
        default="dir",
        help=(
            "cell-cache storage: one JSON file per cell (dir; works "
            "across hosts on a shared filesystem), a single WAL-mode "
            "SQLite file (sqlite; one file for 10k cells, many worker "
            "processes on one host — not for cross-host NFS sharing), "
            "or a cell server spoken to over HTTP (http; shared-nothing "
            "multi-host — needs --server, see the cell-server command)"
        ),
    )
    camp.add_argument(
        "--server",
        metavar="URL",
        default=None,
        help="cell-server URL for --backend http (e.g. http://10.0.0.5:8400)",
    )
    camp.add_argument(
        "--steal",
        action="store_true",
        help=(
            "work-stealing scheduling: workers sharing the cache backend "
            "split the campaign by leasing pending cells through it, and "
            "recover crashed peers' expired leases"
        ),
    )
    camp.add_argument(
        "--owner",
        default=None,
        help="lease owner id for --steal (default: host:pid)",
    )
    camp.add_argument(
        "--lease-ttl",
        type=_positive_finite,
        default=60.0,
        help=(
            "seconds a --steal lease lives before peers may steal it; "
            "set above one cell's wall clock — leases are renewed "
            "between cells within a chunk (default: 60)"
        ),
    )
    camp.add_argument(
        "--max-cell-failures",
        type=_positive_int,
        default=3,
        metavar="K",
        help=(
            "quarantine a cell after it crashes K times campaign-wide "
            "under --steal, instead of retrying it forever (default: 3)"
        ),
    )
    camp.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        help="cells per cache-commit chunk (default: 2x workers)",
    )
    camp.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress the progress/ETA lines on stderr",
    )
    camp.add_argument(
        "--bench-json",
        metavar="PATH",
        default=None,
        help="also write a BENCH_campaign.json-style timing report",
    )

    serve = sub.add_parser(
        "cell-server",
        help=(
            "serve a cell cache over HTTP so campaign workers on any "
            "host share it without a common filesystem (see "
            "docs/operations.md)"
        ),
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (0.0.0.0 to accept remote workers)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8400,
        help="bind port (0 picks a free one; printed on startup)",
    )
    serve.add_argument(
        "--store",
        default="memory",
        metavar="SPEC",
        help=(
            "where served cells are stored: memory (default; gone when "
            "the server exits), dir:PATH (one JSON file per cell, "
            "durable), or sqlite:PATH (one WAL-mode database file, "
            "durable)"
        ),
    )

    status = sub.add_parser(
        "campaign-status",
        help=(
            "live campaign monitor: lease table, per-worker throughput "
            "and quarantined cells from a cell-server's /stats"
        ),
    )
    status.add_argument(
        "--server", metavar="URL", required=True, help="cell-server URL"
    )
    status.add_argument(
        "--json",
        action="store_true",
        help="print the raw /v1/stats JSON instead of the rendered table",
    )

    run_p = sub.add_parser("run", help="run a single scenario")
    run_p.add_argument("--algorithm", default="rcv", choices=algorithm_names())
    run_p.add_argument("--nodes", type=_positive_int, default=10)
    run_p.add_argument(
        "--workload", choices=("burst", "poisson"), default="burst"
    )
    run_p.add_argument(
        "--rate",
        type=_positive_finite,
        default=0.1,
        help="poisson request rate λ",
    )
    run_p.add_argument("--horizon", type=_positive_finite, default=10_000.0)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--trace", action="store_true", help="print the first 60 trace events"
    )

    verify = sub.add_parser(
        "verify",
        help=(
            "exhaustively model-check the protocol core "
            "(passthrough to python -m repro.verify)"
        ),
    )
    # Forwarded args are split off in main() before parsing: argparse's
    # REMAINDER does not accept leading optionals (``verify --algo ...``).
    verify.add_argument(
        "verify_args",
        nargs="*",
        help="arguments forwarded to repro.verify (try: verify --help)",
    )

    sub.add_parser("list", help="list registered algorithms")
    return parser


def _figure_args(args) -> dict:
    seeds = tuple(range(args.seeds))
    if args.paper_scale:
        return {
            "burst": dict(n_values=tuple(range(5, 51, 5)), seeds=seeds),
            "lam": dict(
                inv_lambdas=tuple(range(1, 31, 1)),
                seeds=seeds,
                horizon=100_000.0,
            ),
        }
    return {
        "burst": dict(n_values=(5, 10, 20, 30, 40, 50), seeds=seeds),
        "lam": dict(
            inv_lambdas=(1, 2, 5, 10, 15, 20, 25, 30),
            seeds=seeds,
            horizon=20_000.0,
        ),
    }


def _cmd_figure(args) -> int:
    from repro.experiments import (
        burst_sweep,
        figure4,
        figure5,
        figure6,
        figure7,
        lambda_sweep,
        render_figure,
    )
    from repro.experiments.figures import DEFAULT_BURST_ALGOS

    params = _figure_args(args)
    if args.command in ("fig4", "fig5"):
        results = burst_sweep(**params["burst"])
    else:
        algos = (
            ("rcv", "maekawa")
            if args.command == "fig6"
            else DEFAULT_BURST_ALGOS
        )
        results = lambda_sweep(algorithms=algos, n_nodes=30, **params["lam"])

    figure = {
        "fig4": figure4,
        "fig5": figure5,
        "fig6": figure6,
        "fig7": figure7,
    }[args.command]
    fig = figure(results)
    if args.chart:
        from repro.experiments.charts import render_chart

        print(render_chart(fig))
    else:
        print(render_figure(fig))
    if args.save:
        from repro.metrics.io import save_results

        flat = [r for per_x in results.values() for runs in per_x.values() for r in runs]
        save_results(args.save, flat)
        print(f"(raw results saved to {args.save})")
    return 0


def _cmd_theory(_args) -> int:
    from repro.experiments import burst_sweep, render_rows, theory_table
    from repro.experiments.figures import THEORY_REQUESTS_PER_NODE

    results = burst_sweep(
        (9, 16, 25, 36, 49),
        seeds=tuple(range(3)),
        requests_per_node=THEORY_REQUESTS_PER_NODE,
    )
    print(
        render_rows(
            theory_table(results), title="Measured vs closed-form (§6.1)"
        )
    )
    return 0


def _axis_arg(name: str, text: Optional[str], n_values=(None,)):
    """A campaign flag's text as a :class:`CellSpec` field value —
    parsed by the axis's text form and normalised at every N of the
    sweep, so a bad spec dies with a one-line message naming the flag
    before any directory is created or pool worker launched."""
    from repro.experiments.spec import AXES, UnrepresentableScenarioError

    if text is None:  # a flag left out: the field's default
        return ()
    axis = AXES[name]
    try:
        value = axis.text.parse(text)
        for n in n_values:
            axis.normalize(value, n)
    except UnrepresentableScenarioError as exc:
        raise SystemExit(f"bad {axis.text.flag}: {exc}")
    except ValueError as exc:  # text the grammar cannot read
        raise SystemExit(f"malformed {axis.text.flag} {exc}")
    return value


def _cmd_campaign(args) -> int:
    import json
    from pathlib import Path

    from repro.experiments import CellCache, scale_campaign
    from repro.experiments.campaign import SCALE_N_VALUES

    n_values = tuple(args.n_values) if args.n_values else SCALE_N_VALUES
    campaign = scale_campaign(
        tuple(args.algorithms),
        n_values=n_values,
        seeds=tuple(range(args.seeds)),
        requests_per_node=args.requests_per_node,
        cs_time=_axis_arg("cs_time", args.cs_spec),
        delay=_axis_arg("delay", args.delay_spec),
        faults=_axis_arg("faults", " ".join(args.fault_spec), n_values),
        retx=_axis_arg("retx", args.retx),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.backend == "http":
        if not args.server:
            raise SystemExit(
                "--backend http requires --server URL (start one with "
                "`python -m repro.cli cell-server`)"
            )
        from repro.experiments import BackendUnavailableError, ServiceBackend

        try:
            cache = CellCache(backend=ServiceBackend(args.server))
        except (BackendUnavailableError, ValueError) as exc:
            # unreachable server, or a malformed/https --server URL
            raise SystemExit(str(exc))
    elif args.backend == "sqlite":
        from repro.experiments import SQLiteBackend

        cache = CellCache(backend=SQLiteBackend(out / "cells.sqlite"))
    else:
        cache = CellCache(out / "cells")

    result = campaign.run(
        max_workers=args.workers,
        cache=cache,
        chunk_size=args.chunk_size,
        progress=not args.no_progress,
        steal=args.steal,
        owner=args.owner,
        lease_ttl=args.lease_ttl,
        max_failures=args.max_cell_failures,
    )

    summary = result.to_markdown()
    print(summary)
    (out / "summary.md").write_text(summary + "\n")
    if result.quarantined:
        print(
            f"(WARNING: {len(result.quarantined)} cell(s) quarantined "
            "after repeated crashes — failure logs in summary.md; "
            "triage recipe in docs/operations.md)"
        )
    if result.complete:
        result.save(out / "results.json")
        print(f"(raw results saved to {out / 'results.json'})")
    else:
        print(f"({result.holes()}: results.json not written)")

    if args.bench_json:
        # Rate over the cells this run actually handled (cache reads
        # + computed) — for one of several stealing workers that is a
        # fraction of the campaign.
        processed = cache.hits + cache.writes
        elapsed = result.elapsed_seconds
        report = {
            "bench": (
                "repro.cli campaign — scale sweep wall clock "
                f"(algorithms {list(args.algorithms)}; {campaign.description})"
            ),
            "cells": len(campaign.cells),
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "cells_computed": cache.writes,
            "seconds": round(elapsed, 3),
            "cells_per_sec": round(processed / elapsed, 3),
        }
        Path(args.bench_json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"(timing report written to {args.bench_json})")
    return 0


def _parse_store(text: str):
    """Build a cell-server storage backend from ``memory`` /
    ``dir:PATH`` / ``sqlite:PATH`` CLI syntax."""
    from repro.experiments import DirectoryBackend, MemoryBackend, SQLiteBackend

    if text == "memory":
        return MemoryBackend()
    kind, sep, path = text.partition(":")
    if not sep or not path:
        raise SystemExit(
            f"malformed --store {text!r} (want memory | dir:PATH | "
            "sqlite:PATH)"
        )
    if kind == "dir":
        return DirectoryBackend(path)
    if kind == "sqlite":
        return SQLiteBackend(path)
    raise SystemExit(
        f"unknown --store kind {kind!r} (want memory | dir:PATH | "
        "sqlite:PATH)"
    )


def _cmd_cell_server(args) -> int:
    from repro.experiments.service import PROTOCOL_VERSION, CellServer

    store = _parse_store(args.store)
    server = CellServer(store, host=args.host, port=args.port)
    # One parseable line, flushed before blocking: scripts (and the CI
    # smoke) read the actual URL from it, which --port 0 makes dynamic.
    print(
        f"cell-server serving on {server.url} "
        f"(protocol v{PROTOCOL_VERSION}, store {store!r})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("cell-server: interrupted, shutting down", flush=True)
    return 0


def _render_status(stats: dict, url: str) -> str:
    lines = [
        f"cell-server {url} — protocol v{stats['protocol']}, "
        f"up {stats['uptime_seconds']:,.0f}s",
        f"cells stored : {stats['cells']}",
        f"active leases: {len(stats['leases'])}",
        f"quarantined  : {len(stats['quarantined'])}",
    ]
    owners = stats["owners"]
    # "requests" is additive within protocol v1: older servers omit it
    requests = sum(stats.get("requests", {}).values())
    if requests:
        commits = sum(rec["commits"] for rec in owners.values())
        per_cell = (
            f" ({requests / commits:.1f} per committed cell)" if commits else ""
        )
        lines.append(f"requests     : {requests}{per_cell}")
    if owners:
        lines += ["", "worker                          leases  claims  commits  failures  cells/min"]
        uptime = max(stats["uptime_seconds"], 1e-9)
        for owner, rec in owners.items():
            rate = 60.0 * rec["commits"] / uptime
            lines.append(
                f"{owner:<30}  {rec['active_leases']:>6}  "
                f"{rec['claims']:>6}  {rec['commits']:>7}  "
                f"{rec['failures']:>8}  {rate:>9.1f}"
            )
    if stats["leases"]:
        lines += ["", "lease table (key prefix, holder, seconds to expiry):"]
        for lease in stats["leases"]:
            lines.append(
                f"  {lease['key'][:12]:<12}  {lease['owner']:<30}  "
                f"{lease['expires_in']:>7.1f}s"
            )
    if stats["quarantined"]:
        lines += ["", "quarantined cells (key prefix, failure count):"]
        for key, entry in stats["quarantined"].items():
            lines.append(f"  {key[:12]:<12}  {entry['count']} failures")
        lines.append(
            "  (full failure logs: GET /v1/quarantine; triage: "
            "docs/operations.md)"
        )
    return "\n".join(lines)


def _cmd_campaign_status(args) -> int:
    import json

    from repro.experiments import BackendUnavailableError, ServiceBackend

    try:
        backend = ServiceBackend(args.server)
        stats = backend.stats()
    except BackendUnavailableError as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        print(_render_status(stats, backend.url))
    return 0


def _cmd_run(args) -> int:
    from repro.workload import (
        BurstArrivals,
        PoissonArrivals,
        Scenario,
        run_scenario,
    )

    arrivals, deadlines = BurstArrivals(), {}
    if args.workload == "poisson":
        arrivals = PoissonArrivals(args.rate)
        deadlines = {
            "issue_deadline": args.horizon,
            "drain_deadline": args.horizon * 3,
        }
    scenario = Scenario(
        algorithm=args.algorithm,
        n_nodes=args.nodes,
        arrivals=arrivals,
        seed=args.seed,
        **deadlines,
    )
    result = _run_traced(scenario) if args.trace else run_scenario(scenario)
    row = result.summary_row()
    for key, value in row.items():
        print(f"{key:>10}: {value}")
    if result.extra:
        print(f"{'extra':>10}: {result.extra}")
    return 0


def _run_traced(scenario):
    # Inline variant of run_scenario with a TraceRecorder attached;
    # kept here so the runner stays dependency-free.
    from repro.workload.runner import run_scenario
    from repro.trace import TraceRecorder

    holder = {}

    def tapped_network(network, sim, hooks):
        recorder = TraceRecorder(clock=lambda: sim.now)
        network.add_tap(recorder.network_tap)
        recorder.attach_hooks(hooks)
        holder["recorder"] = recorder

    result = run_scenario_with_tap(scenario, tapped_network)
    recorder = holder["recorder"]
    print(recorder.render(limit=60))
    print(f"... ({len(recorder)} events total)\n")
    return result


def run_scenario_with_tap(scenario, tap):
    """run_scenario with access to (network, sim, hooks) before start.

    Thin wrapper over the unified :class:`repro.engine.Engine`:
    observers attach between construction and start, when nothing has
    been sent yet.  Exposed for the trace example and the CLI.
    """
    from repro.engine import Engine

    engine = Engine(scenario)
    tap(engine.network, engine.sim, engine.hooks)
    return engine.run(require_completion=False)


def _cmd_list(_args) -> int:
    for name in algorithm_names():
        print(name)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "verify":
        from repro.verify.__main__ import main as verify_main

        return verify_main(raw[1:])
    args = build_parser().parse_args(raw)
    if args.command in ("fig4", "fig5", "fig6", "fig7"):
        return _cmd_figure(args)
    if args.command == "theory":
        return _cmd_theory(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "cell-server":
        return _cmd_cell_server(args)
    if args.command == "campaign-status":
        return _cmd_campaign_status(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list(args)
    return 1  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
