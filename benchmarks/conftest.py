"""Benchmark-harness configuration.

``bench_figures.py`` regenerates the paper's artifacts (Figures 4–7
and the §6.1 table, each sweep once) and the ``bench_*`` ablation and
extension files one experiment each.  pytest-benchmark measures wall
time of the regeneration; the *scientific* output — the same
rows/series the paper reports — is printed at the end of the run via
the collected ``REPORTS`` so that ``pytest benchmarks/bench_*.py
--benchmark-only`` leaves a complete paper-vs-measured record in the
log.  The speed floors and the ``BENCH_*.json`` reports live in
``bench_kernel.py``, ``bench_protocol.py``, ``bench_campaign.py`` and
``bench_verify.py``; per-layer costs are the frozen suite's
(``benchmarks/suite/run.py``).
"""

from __future__ import annotations

import sys

REPORTS: list[str] = []

# pytest imports this file as ``conftest``, the bench files import it
# as ``benchmarks.conftest``: make both names one module, so what the
# tests queue is what the summary below prints.
sys.modules.setdefault("benchmarks.conftest", sys.modules[__name__])


def report(text: str) -> None:
    """Queue a rendered table for the end-of-session summary."""
    REPORTS.append(text)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not REPORTS:
        return
    terminalreporter.write_sep("=", "reproduced paper artifacts")
    for text in REPORTS:
        terminalreporter.write_line(text)
        terminalreporter.write_line("")
