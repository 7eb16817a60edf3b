"""Tests for the experiment-campaign workflow."""

import pytest

from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    comparison_campaign,
)


def small_campaign():
    return comparison_campaign(
        ("rcv", "broadcast"), n_values=(5,), seeds=(0, 1), name="t"
    )


def test_add_sweep_builds_cross_product():
    c = Campaign(name="x").add_sweep(("a", "b"), (5, 10), (0, 1, 2))
    assert len(c.cells) == 2 * 2 * 3
    assert {s.algorithm for s in c.cells} == {"a", "b"}


def test_run_and_group():
    result = small_campaign().run()
    groups = result.grouped()
    assert set(groups) == {("rcv", 5), ("broadcast", 5)}
    assert all(len(runs) == 2 for runs in groups.values())


def test_summary_rows_and_markdown():
    result = small_campaign().run()
    rows = result.summary_rows()
    assert len(rows) == 2
    md = result.to_markdown()
    assert md.startswith("## Campaign: t")
    assert "| algorithm |" in md
    assert "rcv" in md and "broadcast" in md


def test_markdown_empty_campaign():
    empty = CampaignResult(Campaign(name="e"), [])
    assert "(no results)" in empty.to_markdown()


def test_result_count_mismatch_rejected():
    c = small_campaign()
    with pytest.raises(ValueError, match="results for"):
        CampaignResult(c, [])


def test_save_and_reload_roundtrip(tmp_path):
    campaign = small_campaign()
    result = campaign.run()
    path = tmp_path / "campaign.json"
    result.save(path)
    reloaded = CampaignResult.load(campaign, path)
    assert reloaded.summary_rows() == result.summary_rows()


def test_parallel_run_matches_sequential():
    campaign = small_campaign()
    seq = campaign.run(max_workers=1)
    par = campaign.run(max_workers=2)
    assert [r.messages_total for r in seq.results] == [
        r.messages_total for r in par.results
    ]


# ----------------------------------------------------------------------
# scale campaigns: specs, cache, partial results
# ----------------------------------------------------------------------
def test_add_sweep_carries_full_scenario_space():
    c = Campaign(name="x").add_sweep(
        ("rcv",),
        (5,),
        (0,),
        workload=("burst", 3),
        cs_time=("uniform", 8.0, 12.0),
        delay=("exponential", 4.0, 1.0),
    )
    [spec] = c.cells
    assert spec.workload == ("burst", 3)
    assert spec.cs_time == ("uniform", 8.0, 12.0)
    assert spec.delay == ("exponential", 4.0, 1.0)
    scenario = spec.build_scenario()
    assert scenario.arrivals.requests_per_node == 3
    assert type(scenario.delay_model).__name__ == "ExponentialDelay"


def test_scale_campaign_defaults():
    from repro.experiments.campaign import SCALE_N_VALUES, scale_campaign

    c = scale_campaign(("rcv", "maekawa"))
    assert {s.n_nodes for s in c.cells} == set(SCALE_N_VALUES)
    assert len(c.cells) == 2 * len(SCALE_N_VALUES) * 3
    assert "N in [50, 100, 150, 200]" in c.description


def test_sweep_cells_are_the_ones_pr12_built():
    """Digests of the cell keys, in order, computed at PR 12 — before
    ``add_sweep``/``scale_campaign`` moved onto ``cell_grid`` — for the
    call shapes of benchmarks/suite/workloads.py, of ``repro.cli
    campaign`` (every field passed, faults resolved per N) and of a
    direct poisson ``add_sweep``."""
    import hashlib

    from repro import cli
    from repro.experiments.campaign import scale_campaign

    def digest(campaign):
        keys = "".join(cell.cache_key() for cell in campaign.cells)
        return len(campaign.cells), hashlib.sha256(keys.encode()).hexdigest()

    suite = scale_campaign(
        ("rcv", "maekawa"),
        n_values=(6, 8, 10, 12),
        seeds=range(3, 7),
        requests_per_node=2,
    )
    assert digest(suite) == (
        32,
        "72dabc932ebde239c94b8695d9471c65c4a88e651c28028b7f4b421a1dc97355",
    )
    from_cli = scale_campaign(
        ("rcv", "maekawa"),
        n_values=(6, 8),
        seeds=(0, 1),
        requests_per_node=1,
        cs_time=cli._axis_arg("cs_time", "uniform:8:12"),
        delay=cli._axis_arg("delay", "constant:5"),
        faults=cli._axis_arg("faults", "drop:0.1 partition:10:20:2", (6, 8)),
        retx=cli._axis_arg("retx", "5:1:20"),
    )
    assert digest(from_cli) == (
        8,
        "af72e16f2636b2b2dc561665b62649855260c8abdd1871070f655b3a2455294a",
    )
    # every axis is described in the text form its flag takes
    assert from_cli.description.endswith(
        "cs_time uniform:8:12. delay constant:5. "
        "faults drop:0.1 partition:10:20:2. retx 5:1:20."
    )
    poisson = Campaign("x").add_sweep(
        ("rcv",),
        (5, 7),
        (0, 1),
        workload=("poisson", 20.0, 500.0),
        algo_kwargs=(("forwarding", "random"),),
    )
    assert digest(poisson) == (
        4,
        "e63a9eaa086189d6797be3646e4a4216c544dd178c25a070f21868dadd53f516",
    )


def test_add_sweep_names_an_unknown_field():
    with pytest.raises(TypeError, match="delay_model"):
        Campaign("x").add_sweep(("rcv",), (5,), (0,), delay_model=None)


def test_run_with_cache_dir_resumes(tmp_path):
    campaign = comparison_campaign(("rcv",), n_values=(5,), seeds=(0, 1))
    first = campaign.run(max_workers=1, cache_dir=tmp_path / "cells")
    again = campaign.run(max_workers=1, cache_dir=tmp_path / "cells")
    assert [r.messages_total for r in first.results] == [
        r.messages_total for r in again.results
    ]
    assert (tmp_path / "cells").is_dir()


def test_sharded_result_partial_and_save_rejected(tmp_path):
    """The only hole a result can have is a quarantined cell (static
    shards, which used to leave holes too, are gone): the summary, the
    ``save()`` refusal and the CLI all name that cause and its remedy."""
    from repro.experiments.parallel import CellSpec

    campaign = comparison_campaign(("rcv",), n_values=(5,), seeds=(0,))
    campaign.cells.append(CellSpec("no-such-algorithm", 5, 0, ("burst", 1)))
    partial = campaign.run(
        max_workers=1,
        cache_dir=tmp_path / "cells",
        steal=True,
        max_failures=1,
        steal_timeout=60.0,
    )
    assert not partial.complete
    assert partial.results.count(None) == 1
    md = partial.to_markdown()
    assert "Partial run: 1/2 cells present, 1 quarantined." in md
    assert "shard" not in md
    with pytest.raises(ValueError, match="partial.*1/2 cells present, 1 q"):
        partial.save(tmp_path / "nope.json")
    # groups skip the missing cell instead of crashing
    (runs,) = partial.grouped().values()
    assert len(runs) == 1
    assert "docs/operations.md" in md


def test_save_embeds_campaign_meta(tmp_path):
    from repro.metrics.io import load_document

    campaign = small_campaign()
    result = campaign.run(max_workers=1)
    path = tmp_path / "archive.json"
    result.save(path)
    results, meta = load_document(path)
    assert len(results) == len(campaign.cells)
    assert meta["campaign"] == "t"
    assert meta["cells"] == len(campaign.cells)
    assert meta["elapsed_seconds"] >= 0


def test_markdown_reports_wall_clock():
    result = small_campaign().run(max_workers=1)
    assert result.elapsed_seconds is not None
    assert "Wall clock:" in result.to_markdown()
