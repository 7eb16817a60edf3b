"""Experiment campaigns: declarative bundles of simulation cells.

A campaign is a named list of :class:`~repro.experiments.parallel.
CellSpec` cells plus grouping metadata.  Running one produces a
:class:`CampaignResult` that can

* aggregate per group (mean ± CI of NME / response / sync over seeds),
* render a markdown report (the EXPERIMENTS.md table format),
* persist raw runs to JSON and reload them for re-analysis without
  re-simulation.

This is the reproducibility workflow glue: EXPERIMENTS.md's numbers
can be regenerated by anyone from a campaign file and a seed list.
Every cell executes through the unified :class:`repro.engine.Engine`
(via :func:`~repro.experiments.parallel.run_cells`), so campaign
results are bit-for-bit identical to direct ``run_scenario`` calls.

Scale campaigns (N=100–200, the range the PR-2 protocol speedup
unlocked) run through the same path with a
:class:`~repro.experiments.cache.CellCache` attached: interrupted
runs resume recomputing only missing cells, and independent worker
processes or hosts running the same campaign over one cache backend
split the cell list by leasing cells through it.  See
docs/campaigns.md for the recipe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import CellSpec, run_cells
from repro.experiments.spec import AXES, cell_grid
from repro.metrics.io import load_results, save_results
from repro.metrics.records import RunResult
from repro.metrics.summary import summarize

__all__ = [
    "Campaign",
    "CampaignResult",
    "scale_campaign",
    "SCALE_N_VALUES",
]

#: the post-paper node counts the scale campaigns sweep
SCALE_N_VALUES: Tuple[int, ...] = (50, 100, 150, 200)


def _last_error_line(traceback_text: str) -> str:
    """The final non-empty line of a recorded traceback — the
    exception itself, which is what a summary reader wants."""
    lines = [ln.strip() for ln in traceback_text.splitlines() if ln.strip()]
    return lines[-1] if lines else ""


@dataclass
class Campaign:
    """A named, reproducible set of simulation cells."""

    name: str
    cells: List[CellSpec] = field(default_factory=list)
    description: str = ""

    def add_sweep(
        self,
        algorithms: Sequence[str],
        n_values: Sequence[int],
        seeds: Sequence[int],
        *,
        workload: Tuple = ("burst", 1),
        **fields,
    ) -> "Campaign":
        """Append the cross product of (algorithm, n, seed) cells.

        ``fields`` are the other :class:`CellSpec` fields, in their
        spec forms, so a sweep can cover the full scenario matrix
        (``cs_time``/``delay`` distributions, ``algo_kwargs``
        variants, ``faults``, ``retx``) — not just the constant-delay
        default.  A callable value is a function of the node count:
        ``faults(n) -> spec`` for faults whose shape depends on it (a
        partition of "the first K nodes vs the rest" names different
        groups at each N of the sweep).
        """
        points = {n: {"n_nodes": n} for n in n_values}
        self.cells += [
            cell
            for _, _, cell in cell_grid(
                algorithms, points, seeds, workload=workload, **fields
            )
        ]
        return self

    def run(
        self,
        *,
        max_workers: Optional[int] = None,
        cache=None,
        progress=None,
        steal: bool = False,
        owner: Optional[str] = None,
        lease_ttl: float = 60.0,
        steal_timeout: Optional[float] = None,
        max_failures: int = 3,
    ) -> "CampaignResult":
        """Execute every cell (optionally in parallel); order stable.

        ``cache`` attaches a cell cache (a
        :class:`~repro.experiments.cache.CellCache`): every cell is
        claimed through it (see
        :func:`~repro.experiments.parallel.run_cells`), so the run is
        resumable, workers sharing the backend split the campaign and
        recover crashed peers' expired leases, and a cell that raises
        is retried up to ``max_failures`` times campaign-wide and then
        quarantined.  Quarantined cells come back on
        :attr:`CampaignResult.quarantined` (and in the markdown
        summary) with their failure logs — see docs/operations.md for
        triage.  Quarantine is for crashes: a faulted cell that loses
        liveness is a result (``completed_count < issued_count``, the
        summary's completion column), and only a clean cell that
        strands is a failure — the one completion rule of
        ``run_cells`` (docs/faults.md).  ``steal`` selects nothing, as
        in ``run_cells``.
        """
        start = time.perf_counter()
        results = run_cells(
            self.cells,
            max_workers=max_workers,
            cache=cache,
            progress=progress,
            steal=steal,
            owner=owner,
            lease_ttl=lease_ttl,
            steal_timeout=steal_timeout,
            max_failures=max_failures,
        )
        quarantined: Dict[int, dict] = {}
        # Only a quarantined cell leaves its slot empty: a run with
        # every result asks the backend nothing more.
        if cache is not None and None in results:
            table = cache.quarantined()
            if table:
                for index, spec in enumerate(self.cells):
                    record = table.get(spec.cache_key())
                    if record is not None:
                        quarantined[index] = record
        return CampaignResult(
            self,
            results,
            elapsed_seconds=time.perf_counter() - start,
            quarantined=quarantined,
        )


class CampaignResult:
    """Raw results bound to the campaign that produced them.

    ``results`` aligns with ``campaign.cells``; an entry is ``None``
    only for a **quarantined** cell (crashed ``max_failures`` times
    campaign-wide), and is skipped by the aggregations.
    ``quarantined`` maps cell index to the backend's case file
    (``{"count": int, "failures": [{owner, error, time}, ...]}``).
    """

    def __init__(
        self,
        campaign: Campaign,
        results: List[Optional[RunResult]],
        *,
        elapsed_seconds: Optional[float] = None,
        quarantined: Optional[Dict[int, dict]] = None,
    ) -> None:
        if len(results) != len(campaign.cells):
            raise ValueError(
                f"{len(results)} results for {len(campaign.cells)} cells"
            )
        self.campaign = campaign
        self.results = results
        self.elapsed_seconds = elapsed_seconds
        self.quarantined = dict(quarantined or {})

    @property
    def complete(self) -> bool:
        """Every cell has a result (no quarantined holes)."""
        return all(r is not None for r in self.results)

    def holes(self) -> str:
        """``"d/n cells present, k quarantined"`` — what an incomplete
        result is missing, for the summary, ``save()`` and the CLI."""
        done = sum(1 for r in self.results if r is not None)
        return (
            f"{done}/{len(self.results)} cells present, "
            f"{len(self.quarantined)} quarantined"
        )

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def grouped(self) -> Dict[Tuple[str, int], List[RunResult]]:
        """Results keyed by (algorithm, n_nodes), seeds pooled."""
        groups: Dict[Tuple[str, int], List[RunResult]] = {}
        for spec, result in zip(self.campaign.cells, self.results):
            if result is None:
                continue
            groups.setdefault((spec.algorithm, spec.n_nodes), []).append(result)
        return groups

    def summary_rows(self) -> List[dict]:
        # Only a faulted cell may strand (the one completion rule of
        # run_cells), so only a campaign carrying faults reports it.
        faulted = any(
            c.faults and c.normalized().faults for c in self.campaign.cells
        )
        rows = []
        for (algo, n), runs in sorted(self.grouped().items()):
            row = {
                "algorithm": algo,
                "n": n,
                "runs": len(runs),
                "NME": str(summarize(r.nme for r in runs)),
                "response": str(
                    summarize(r.mean_response_time for r in runs)
                ),
                "sync": str(summarize(r.mean_sync_delay for r in runs)),
            }
            if faulted:
                issued = sum(r.issued_count for r in runs)
                done = sum(r.completed_count for r in runs)
                row["completion"] = f"{done / issued:.3f}" if issued else "-"
            rows.append(row)
        return rows

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def to_markdown(self) -> str:
        from repro.experiments.tables import render_markdown

        lines = [f"## Campaign: {self.campaign.name}", ""]
        if self.campaign.description:
            lines += [self.campaign.description, ""]
        if not self.complete:
            lines += [f"Partial run: {self.holes()}.", ""]
        if self.quarantined:
            lines += [
                f"**Quarantined: {len(self.quarantined)} cell(s)** crashed "
                "repeatedly and were excluded (see docs/operations.md, "
                "§quarantine triage):",
                "",
            ]
            for index, record in sorted(self.quarantined.items()):
                spec = self.campaign.cells[index]
                last = record.get("failures") or [{}]
                error = _last_error_line(last[-1].get("error", ""))
                lines.append(
                    f"- `{spec.algorithm}` N={spec.n_nodes} "
                    f"seed={spec.seed}: {record.get('count', '?')} "
                    f"failures; last: `{error or 'unknown'}`"
                )
            lines.append("")
        rows = self.summary_rows()
        if not rows:
            lines.append("(no results)")
            return "\n".join(lines)
        lines.append(render_markdown(rows))
        if self.elapsed_seconds is not None:
            lines += ["", f"Wall clock: {self.elapsed_seconds:,.1f}s."]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Archive the raw runs (self-describing via campaign meta).

        Incomplete results cannot be archived — the flat results
        list would silently misalign with the cell list on reload;
        triage the quarantined cells and re-run over the same cache
        first.
        """
        if not self.complete:
            raise ValueError(
                f"cannot save a partial campaign result ({self.holes()}); "
                "triage the quarantined cells (docs/operations.md) and "
                "re-run over the same cell cache first"
            )
        save_results(
            path,
            self.results,
            meta={
                "campaign": self.campaign.name,
                "description": self.campaign.description,
                "cells": len(self.campaign.cells),
                "elapsed_seconds": self.elapsed_seconds,
            },
        )

    @classmethod
    def load(cls, campaign: Campaign, path) -> "CampaignResult":
        """Rebind archived raw runs to their campaign definition."""
        results = load_results(Path(path))
        return cls(campaign, results)


def scale_campaign(
    algorithms: Sequence[str] = ("rcv", "maekawa"),
    *,
    n_values: Sequence[int] = SCALE_N_VALUES,
    seeds: Sequence[int] = (0, 1, 2),
    requests_per_node: int = 1,
    name: str = "scale-sweep",
    **fields,
) -> Campaign:
    """The N=50..200 scale sweep the incremental protocol unlocked.

    Same workload family as Figures 4–5 but extended past the paper's
    N=50 ceiling; run with a cell cache, by one worker or several —
    see docs/campaigns.md for the full recipe and
    ``python -m repro.cli campaign`` for the command-line front end.
    ``fields`` go to :meth:`Campaign.add_sweep`: ``faults`` (a spec
    tuple or ``faults(n) -> spec`` callable) runs the whole grid under
    an adversarial network — docs/faults.md has the recipe; cells that
    lose liveness under the faults come back as results with
    completion < 1 — and ``retx`` layers the reliable
    (ack/retransmit) channel under the same grid, the with-retx
    column of the fault benchmarks (docs/faults.md, "Recovery").  The
    description spells each setting in the text form its campaign
    flag takes (``faults drop:0.1 partition:10:20:2``).
    """
    n = min(n_values, default=None)

    def setting(key, value) -> str:
        if callable(value):
            return "per N"
        axis = AXES[key]
        if axis.text is None:
            return repr(value)
        return axis.text.render(axis.normalize(value, n))

    settings = "".join(
        f" {key} {setting(key, value)}."
        for key, value in fields.items()
        if value != ()
    )
    return Campaign(
        name=name,
        description=(
            f"Burst workload ({requests_per_node}/node), "
            f"N in {list(n_values)}, seeds {list(seeds)}.{settings}"
        ),
    ).add_sweep(
        algorithms,
        n_values,
        seeds,
        workload=("burst", int(requests_per_node)),
        **fields,
    )
