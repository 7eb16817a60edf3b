"""Extra CLI coverage: theory command, paper-scale parameterization,
and figure-args plumbing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli


def test_figure_args_default_vs_paper_scale():
    class Args:
        seeds = 2
        paper_scale = False

    default = cli._figure_args(Args())
    assert default["lam"]["horizon"] == 20_000.0
    assert default["burst"]["seeds"] == (0, 1)

    Args.paper_scale = True
    paper = cli._figure_args(Args())
    assert paper["lam"]["horizon"] == 100_000.0
    assert paper["burst"]["n_values"] == tuple(range(5, 51, 5))
    assert paper["lam"]["inv_lambdas"] == tuple(range(1, 31))


def test_cli_theory_command(capsys, monkeypatch):
    # Shrink the sweep the command hands to the table.
    from repro.experiments import figures

    def small_sweep(n_values, *, seeds, requests_per_node):
        assert requests_per_node == figures.THEORY_REQUESTS_PER_NODE
        return figures.burst_sweep(
            (9,), ("rcv",), (0,), requests_per_node=requests_per_node
        )

    monkeypatch.setattr(
        "repro.experiments.burst_sweep", small_sweep, raising=True
    )
    assert cli.main(["theory"]) == 0
    out = capsys.readouterr().out
    assert "Measured vs closed-form" in out
    assert "rcv" in out


def _small_figures(monkeypatch, cpus):
    """Shrink the figure sweeps, on a host with ``cpus`` usable CPUs —
    the one thing that decides in-process vs pool."""
    from repro.experiments import parallel

    monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(
        cli,
        "_figure_args",
        lambda args: {
            "burst": dict(n_values=(5,), seeds=(0,)),
            "lam": dict(inv_lambdas=(5,), seeds=(0,), horizon=300.0),
        },
    )


def test_cli_save_works_without_parallel(capsys, monkeypatch, tmp_path):
    """--save retains the raw runs when the sweep ran in-process (one
    usable CPU, no pool)."""
    from repro.metrics.io import load_results

    _small_figures(monkeypatch, cpus=1)
    out_file = tmp_path / "raw.json"
    assert cli.main(["fig4", "--save", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert f"saved to {out_file}" in out
    loaded = load_results(out_file)
    assert loaded and all(r.algorithm for r in loaded)


def test_cli_save_sequential_equals_parallel(capsys, monkeypatch, tmp_path):
    """The same command on a one-CPU and a two-CPU host: in-process vs
    pool, identical table and raw runs."""
    from repro.metrics.io import load_results, result_to_dict

    seq_file = tmp_path / "seq.json"
    par_file = tmp_path / "par.json"
    _small_figures(monkeypatch, cpus=1)
    assert cli.main(["fig4", "--save", str(seq_file)]) == 0
    seq_table = capsys.readouterr().out.replace(str(seq_file), "")
    _small_figures(monkeypatch, cpus=2)
    assert cli.main(["fig4", "--save", str(par_file)]) == 0
    assert capsys.readouterr().out.replace(str(par_file), "") == seq_table
    seq = [result_to_dict(r) for r in load_results(seq_file)]
    par = [result_to_dict(r) for r in load_results(par_file)]
    assert seq == par


def test_cli_campaign_runs_and_resumes(capsys, tmp_path):
    out_dir = tmp_path / "camp"
    argv = [
        "campaign",
        "--algorithms", "rcv",
        "--n-values", "5", "6",
        "--seeds", "2",
        "--out", str(out_dir),
        "--workers", "1",
        "--no-progress",
        "--bench-json", str(out_dir / "bench.json"),
    ]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert "## Campaign: scale-sweep" in first
    assert (out_dir / "summary.md").exists()
    assert (out_dir / "results.json").exists()
    assert (out_dir / "bench.json").exists()

    import json

    report = json.loads((out_dir / "bench.json").read_text())
    assert report["cells"] == 4
    assert report["cache_misses"] == 4
    assert report["cells_computed"] == 4

    # Second run resumes entirely from the cell cache.
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    report = json.loads((out_dir / "bench.json").read_text())
    assert report["cache_hits"] == 4 and report["cache_misses"] == 0
    assert report["cells_computed"] == 0
    # Same table either way.
    table = lambda text: [l for l in text.splitlines() if l.startswith("|")]
    assert table(first) == table(second)


def test_cli_campaign_quarantined_run_names_its_cause(
    capsys, tmp_path, monkeypatch
):
    """A --steal run that ends with quarantined cells used to print
    "(shard run: ...; run without --shard to aggregate)" — wrong cause,
    wrong remedy.  The only hole a result can have is a quarantined
    cell, and the CLI and summary.md say so."""
    from repro.experiments import parallel

    def crash(spec):  # quarantine is for crashes, not lost liveness
        raise RuntimeError("simulated worker crash")

    monkeypatch.setattr(parallel, "_run_cell", crash)
    out_dir = tmp_path / "camp"
    argv = [
        "campaign",
        "--algorithms", "rcv",
        "--n-values", "6",
        "--seeds", "1",
        "--steal",
        "--max-cell-failures", "1",
        "--out", str(out_dir),
        "--workers", "1",
        "--no-progress",
    ]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "(0/1 cells present, 1 quarantined: results.json not written)" in out
    assert "triage recipe in docs/operations.md" in out
    assert "shard" not in out
    assert not (out_dir / "results.json").exists()
    summary = (out_dir / "summary.md").read_text()
    assert "Partial run: 0/1 cells present, 1 quarantined." in summary
    assert "simulated worker crash" in summary


def test_cli_campaign_rejects_malformed_args(tmp_path):
    import pytest

    with pytest.raises(SystemExit):
        cli.main(["campaign", "--delay-spec", "constant:x"])
    with pytest.raises(SystemExit, match="bad --delay-spec"):
        cli.main(["campaign", "--delay-spec", "jitered:5:2"])  # typo'd kind
    with pytest.raises(SystemExit, match="bad --cs-spec"):
        cli.main(["campaign", "--cs-spec", "jittered:5:2"])  # not a cs kind
    with pytest.raises(SystemExit, match="bad --delay-spec"):
        cli.main(["campaign", "--delay-spec", "constant:-5"])  # bad range
    with pytest.raises(SystemExit, match="bad --cs-spec"):
        cli.main(["campaign", "--cs-spec", "uniform:5:2"])  # lo > hi
    # static shards are gone, flag included: --steal is the one way
    # to split a campaign (argparse: "unrecognized arguments", exit 2)
    with pytest.raises(SystemExit) as removed:
        cli.main(["campaign", "--shard", "0/2"])
    assert removed.value.code == 2


def test_cli_fig6_parallel(capsys, monkeypatch):
    _small_figures(monkeypatch, cpus=2)
    assert cli.main(["fig6"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out and "maekawa" in out


def test_cli_campaign_rejects_malformed_recover_and_retx_specs():
    import pytest

    # recover grammar: arity, numeric coercion, cross-validation
    with pytest.raises(SystemExit, match="want recover:NODE:T"):
        cli.main(["campaign", "--fault-spec", "recover:1"])
    with pytest.raises(SystemExit, match="malformed --fault-spec"):
        cli.main(["campaign", "--fault-spec", "recover:one:50"])
    # a recover without a strictly earlier crash dies eagerly, naming
    # the offending node, before any cell runs
    with pytest.raises(SystemExit, match="recover names node 1"):
        cli.main(["campaign", "--fault-spec", "recover:1:50"])
    with pytest.raises(SystemExit, match="strictly later"):
        cli.main(
            [
                "campaign",
                "--fault-spec", "crash:1:50",
                "--fault-spec", "recover:1:50",
            ]
        )
    # retx grammar: arity, numeric coercion, per-field range checks
    with pytest.raises(SystemExit, match="malformed --retx"):
        cli.main(["campaign", "--retx", "5:2:10:9"])
    with pytest.raises(SystemExit, match="malformed --retx"):
        cli.main(["campaign", "--retx", "fast"])
    with pytest.raises(SystemExit, match="bad --retx.*rto"):
        cli.main(["campaign", "--retx", "-5"])
    with pytest.raises(SystemExit, match="bad --retx.*backoff"):
        cli.main(["campaign", "--retx", "5:0.5"])
    with pytest.raises(SystemExit, match="bad --retx.*max_retries"):
        cli.main(["campaign", "--retx", "5:2:0"])


def test_cli_fault_spec_refuses_non_integral_k_and_node():
    """``partition:30:60:2.7`` used to run K=2 and ``crash:1.9:20`` to
    crash node 1 — a different experiment than the one typed, with no
    message."""
    import pytest

    for text, names in (
        ("partition:30:60:2.7", "K=2.7 .*whole number"),
        ("crash:1.9:20", "crash names node 1.9, not a whole number"),
        ("recover:1.5:30", "recover names node 1.5, not a whole number"),
    ):
        with pytest.raises(SystemExit, match=f"bad --fault-spec: .*{names}"):
            cli.main(["campaign", "--n-values", "6", "--fault-spec", text])
    with pytest.raises(
        SystemExit, match="bad --retx: .*max_retries .*whole number.*2.5"
    ):
        cli.main(["campaign", "--retx", "5:2:2.5"])
    # an integral spelling is the integer
    assert cli._axis_arg("faults", "crash:1.0:20", (6,)) == (
        ("crash", ((1, 20.0),)),
    )


def test_cli_campaign_refuses_non_finite_parameters():
    import pytest

    for flag, text in (
        ("--retx", "nan"),
        ("--retx", "5:nan"),
        ("--retx", "5:2:inf"),
        ("--fault-spec", "reorder:inf"),
        ("--fault-spec", "crash:1:inf"),
        ("--delay-spec", "constant:inf"),
        ("--delay-spec", "uniform:2:nan"),
        ("--cs-spec", "constant:nan"),
    ):
        with pytest.raises(SystemExit, match=f"(bad|malformed) {flag}"):
            cli.main(["campaign", flag, text])


def test_cli_fault_campaign_that_strands_is_complete(capsys, tmp_path):
    """Lost liveness under faults is the measurement: the campaign is
    complete without --steal, results.json is written, and summary.md
    says how much completed."""
    out_dir = tmp_path / "camp"
    argv = [
        "campaign",
        "--algorithms", "rcv",
        "--n-values", "6",
        "--seeds", "1",
        "--fault-spec", "drop:0.9",
        "--out", str(out_dir),
        "--workers", "1",
        "--no-progress",
    ]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "quarantined" not in out
    assert (out_dir / "results.json").exists()
    summary = (out_dir / "summary.md").read_text()
    assert "faults drop:0.9." in summary
    assert "| completion |" in summary and "| 0.000 |" in summary


def test_cli_campaign_retx_cells_complete_under_drop(capsys, tmp_path):
    """The PR-7 quarantine story, inverted: a lossy campaign cell that
    previously wedged now completes once --retx is given."""
    out_dir = tmp_path / "camp"
    argv = [
        "campaign",
        "--algorithms", "rcv",
        "--n-values", "6",
        "--seeds", "1",
        "--fault-spec", "drop:0.2",
        "--retx", "5:1:20",
        "--out", str(out_dir),
        "--workers", "1",
        "--no-progress",
        "--bench-json", str(out_dir / "bench.json"),
    ]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "## Campaign" in out

    import json

    report = json.loads((out_dir / "bench.json").read_text())
    assert report["cells"] == 1
    assert report.get("quarantined", 0) == 0
    assert "retx 5:1:20" in report["bench"]


@pytest.mark.parametrize(
    "command, flag, bad",
    [
        ("campaign", "--seeds", "0"),  # parent: empty campaign, exit 0
        ("campaign", "--seeds", "-3"),
        ("campaign", "--workers", "0"),  # parent: silently one process
        ("campaign", "--workers", "-2"),
        ("campaign", "--n-values", "0"),  # parent: Scenario traceback
        ("campaign", "--chunk-size", "0"),  # parent: range() traceback
        ("campaign", "--requests-per-node", "0"),
        ("campaign", "--max-cell-failures", "0"),
        ("campaign", "--lease-ttl", "0"),
        ("campaign", "--lease-ttl", "nan"),
        ("campaign", "--lease-ttl", "inf"),
        ("fig4", "--seeds", "0"),
        ("run", "--nodes", "0"),
        ("run", "--rate", "0"),  # parent: ValueError traceback
        ("run", "--horizon", "-5"),  # parent: "0 of 0 requests" traceback
    ],
)
def test_cli_refuses_counts_that_are_not_positive(
    command, flag, bad, capsys, tmp_path
):
    """Each is a usage error (exit 2) naming the flag and the value,
    raised before anything runs."""
    argv = [command, flag, bad]
    if command == "campaign":
        argv += ["--out", str(tmp_path), "--no-progress"]
    with pytest.raises(SystemExit) as refused:
        cli.main(argv)
    assert refused.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected a" in err and repr(bad) in err


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_cli_run_with_an_unreachable_horizon_returns(horizon):
    """In a subprocess under a timeout: before the flag had a type this
    spun forever (NaN compares false, so no driver ever stopped
    issuing and ``run(until=nan)`` never reached its horizon)."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", "--nodes", "4",
         "--workload", "poisson", "--horizon", horizon],
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
        capture_output=True, text=True, timeout=30,
    )  # fmt: skip
    assert proc.returncode == 2
    assert "argument --horizon: expected a finite number > 0" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_count_flags_accept_what_they_always_did():
    args = cli.build_parser().parse_args(
        "campaign --seeds 1 --workers 1 --n-values 1 200 --chunk-size 1 "
        "--requests-per-node 3 --max-cell-failures 1 --lease-ttl 0.5".split()
    )
    assert (args.seeds, args.workers, args.n_values) == (1, 1, [1, 200])
    assert (args.chunk_size, args.requests_per_node) == (1, 3)
    assert (args.max_cell_failures, args.lease_ttl) == (1, 0.5)
    defaults = cli.build_parser().parse_args(["campaign"])
    assert (defaults.seeds, defaults.workers, defaults.n_values) == (3, None, None)
    assert (defaults.lease_ttl, defaults.max_cell_failures) == (60.0, 3)
