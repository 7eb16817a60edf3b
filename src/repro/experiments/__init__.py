"""Experiment harness: one sweep per figure family, one reducer per
figure.

``burst_sweep`` (Figures 4–5, the §6.1 table) and ``lambda_sweep``
(Figures 6–7) sweep the paper's parameter over algorithms and seeds;
each ``figureN`` reduces a sweep's results to a
:class:`~repro.experiments.figures.FigureData` holding per-point
:class:`~repro.metrics.summary.Summary` values, and the ``render``
helpers print the same series the paper plots.  The benchmark harness
(``benchmarks/``) and the CLI both call these.

Sweeps and campaigns are the same thing underneath: a
:func:`~repro.experiments.spec.cell_grid` of picklable
:class:`~repro.experiments.spec.CellSpec` cells run through
:func:`~repro.experiments.parallel.run_cells`, with an optional
content-addressed :class:`~repro.experiments.cache.CellCache`.  A
:class:`~repro.experiments.campaign.Campaign` names such a grid and
adds aggregation, reports and the resumable and work-stealing
schedules (see docs/campaigns.md).
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
from repro.experiments.parallel import ProgressReporter, run_cells
from repro.experiments.spec import (
    CellSpec,
    UnrepresentableScenarioError,
    cell_grid,
)
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
    "cell_grid",
    "fault_grid",
    "fault_sweep",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "comparison_campaign",
    "lambda_sweep",
    "render_chart",
    "run_cells",
    "render_figure",
    "render_markdown",
    "render_rows",
    "scale_campaign",
    "theory_table",
]
