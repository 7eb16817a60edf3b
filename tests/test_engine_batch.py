"""``CellTemplate`` — the seed loop the frozen benchmark suite imports.

A template run is ``run_scenario`` of the same (spec, seed) by
construction; one parity test and the two identity assertions are all
a few-line seed loop needs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine import CellTemplate
from repro.experiments.spec import CellSpec
from repro.metrics.io import result_to_dict

SEEDS = (0, 1, 2)

BURST_SPEC = CellSpec(
    algorithm="rcv", n_nodes=12, seed=0, workload=("burst", 2)
)
POISSON_SPEC = CellSpec(
    algorithm="rcv",
    n_nodes=8,
    seed=0,
    workload=("poisson", 40.0, 300.0),
    delay=("uniform", 1.0, 9.0),
    cs_time=("exponential", 8.0, 0.5),
)
# Liveness-preserving faults (dup/reorder lose no information), so
# the strict require_completion default still holds per seed.
FAULTY_SPEC = replace(
    BURST_SPEC, faults=(("dup", 0.15), ("reorder", 6.0))
)


def _fresh(spec, seed):
    from repro.workload.runner import run_scenario

    return run_scenario(replace(spec, seed=seed).build_scenario())


@pytest.mark.parametrize(
    "spec",
    [BURST_SPEC, POISSON_SPEC, FAULTY_SPEC],
    ids=["burst", "poisson", "faulty"],
)
def test_batched_equals_fresh_per_seed(spec):
    """One template across many seeds == a fresh engine per seed."""
    template = CellTemplate(spec)
    batched = [template.run(seed) for seed in SEEDS]
    fresh = [_fresh(spec, seed) for seed in SEEDS]
    assert [result_to_dict(a) for a in batched] == [
        result_to_dict(b) for b in fresh
    ]


def test_template_key_ignores_seed():
    """Cells differing only in seed share one template identity."""
    keys = {CellTemplate(replace(BURST_SPEC, seed=s)).key for s in SEEDS}
    assert len(keys) == 1
    # ...and it is the normalized spec: bare-number cs_time/delay
    # collapse to their constant-spec tuples.
    assert next(iter(keys)) == BURST_SPEC.normalized()


def test_template_key_separates_fault_families():
    """A faulty cell and its clean twin are different template
    families."""
    assert CellTemplate(FAULTY_SPEC).key != CellTemplate(BURST_SPEC).key
    # ...but a no-op fault spec IS the clean family.
    noop = replace(BURST_SPEC, faults=(("drop", 0.0),))
    assert CellTemplate(noop).key == CellTemplate(BURST_SPEC).key
