"""The start-up floor: what a process imports to run cells and print a
table.  A module set, not a timing — deterministic on any host.

The pool machinery (``concurrent.futures.process``,
``multiprocessing``) is for ``run_cells(max_workers >= 2)`` only,
``asyncio`` for ``repro.runtime`` only, and nothing under ``src/``
needs a third-party numeric package; what each cost when it was on
the path is in docs/performance.md, "Start-up and footprint".
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.parallel import CellSpec, run_cells

SRC = Path(__file__).resolve().parent.parent / "src"
FORBIDDEN = (
    "numpy", "scipy", "concurrent.futures.process", "multiprocessing", "asyncio",
)

SCRIPT = """
import json, sys
import repro
from repro.engine import run_scenario
from repro.experiments.parallel import CellSpec, run_cells
from repro.metrics.summary import summarize

specs = [CellSpec("rcv", 5, seed, ("burst", 1)) for seed in (0, 1)]
one = run_scenario(specs[0].build_scenario())
inline = run_cells(specs, max_workers=1)
assert inline[0].messages_total == one.messages_total
summary = summarize([r.nme for r in inline] + [one.nme])
assert summary.n == 3 and summary.ci95 >= 0.0
print(json.dumps(sorted(sys.modules)))
"""


def test_running_cells_and_summarizing_imports_no_numeric_or_pool_stack():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    loaded = set(json.loads(out.stdout))
    assert "repro.metrics.summary" in loaded  # the script really ran
    assert not loaded.intersection(FORBIDDEN)


def test_two_workers_still_pool_and_agree_with_the_inline_run():
    specs = [CellSpec("rcv", 5, seed, ("burst", 1)) for seed in (0, 1)]
    pooled = run_cells(specs, max_workers=2)
    assert "concurrent.futures.process" in sys.modules
    assert pooled == run_cells(specs, max_workers=1)


def test_no_lint_package_comes_back_through_the_planted_mutants():
    """The ``lint`` subpackage is gone (tests/test_determinism.py and
    tests/test_spec.py hold its two invariants); its one importer
    inside ``src/`` was the planted-bug builder."""
    import importlib.util

    import repro
    from repro.verify.mutations import planted_node_class

    gone = f"{repro.__name__}.lint"
    assert importlib.util.find_spec(gone) is None
    planted_node_class("eager-done")
    assert not [m for m in sys.modules if m.startswith(gone)]
