"""Closed-form performance model (paper §6.1 and related work).

:mod:`~repro.analysis.theory` encodes the paper's analytical results
and the standard complexity figures of every implemented baseline;
:mod:`~repro.analysis.validate` compares them against simulation
measurements and is exercised by ``benchmarks/bench_figures.py``
and ``tests/test_theory.py``.
"""

from repro.analysis.theory import (
    AlgorithmModel,
    MODELS,
    rcv_light_load_nme,
    rcv_heavy_load_min_forwards,
    rcv_response_time_bounds,
)
from repro.analysis.validate import compare_to_theory, TheoryComparison

__all__ = [
    "AlgorithmModel",
    "MODELS",
    "TheoryComparison",
    "compare_to_theory",
    "rcv_heavy_load_min_forwards",
    "rcv_light_load_nme",
    "rcv_response_time_bounds",
]
