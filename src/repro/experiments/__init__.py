"""Experiment harness: one entry point per paper figure.

Each ``figureN`` function sweeps the paper's parameter, repeats over
seeds, and returns a :class:`~repro.experiments.figures.FigureData`
holding per-point :class:`~repro.metrics.summary.Summary` values; the
``render`` helpers print the same series the paper plots.  The
benchmark harness (``benchmarks/``) and the CLI both call these.

Scale campaigns (N=100–200) layer on top: a
:class:`~repro.experiments.campaign.Campaign` of picklable
:class:`~repro.experiments.spec.CellSpec` cells runs through
:func:`~repro.experiments.parallel.run_cells` with an optional
content-addressed :class:`~repro.experiments.cache.CellCache`
(resumable, shardable — see docs/campaigns.md).
"""

from repro.experiments.backends import (
    BackendUnavailableError,
    CacheBackend,
    DirectoryBackend,
    MemoryBackend,
    ServiceBackend,
    SQLiteBackend,
)
from repro.experiments.cache import CellCache
from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    comparison_campaign,
    scale_campaign,
)
from repro.experiments.charts import render_chart
from repro.experiments.service import CellServer
from repro.experiments.figures import (
    FigureData,
    burst_sweep,
    fault_grid,
    fault_sweep,
    figure4,
    figure5,
    figure6,
    figure7,
    lambda_sweep,
    theory_table,
)
from repro.experiments.parallel import (
    ProgressReporter,
    parallel_burst_sweep,
    parallel_lambda_sweep,
    run_cells,
)
from repro.experiments.spec import CellSpec, UnrepresentableScenarioError
from repro.experiments.tables import (
    render_figure,
    render_markdown,
    render_rows,
)

__all__ = [
    "BackendUnavailableError",
    "CacheBackend",
    "Campaign",
    "CampaignResult",
    "CellCache",
    "CellServer",
    "CellSpec",
    "DirectoryBackend",
    "MemoryBackend",
    "ServiceBackend",
    "SQLiteBackend",
    "FigureData",
    "ProgressReporter",
    "UnrepresentableScenarioError",
    "burst_sweep",
    "fault_grid",
    "fault_sweep",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "comparison_campaign",
    "lambda_sweep",
    "parallel_burst_sweep",
    "parallel_lambda_sweep",
    "render_chart",
    "run_cells",
    "render_figure",
    "render_markdown",
    "render_rows",
    "scale_campaign",
    "theory_table",
]
