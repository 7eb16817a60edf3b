"""Multi-seed cell execution: one cell family, many seeds.

A campaign "cell" is one point of an experiment grid run under many
seeds.  The seeds share *everything except randomness*: the same
algorithm, node count, workload shape, delay model, and CS-time
distribution.  :class:`CellTemplate` is the explicit API for running
such a family — ``CellTemplate(spec).run(seed)`` — used where the
caller already iterates seeds itself (``figures.fault_sweep``).  It
builds the stateless delay model and cs-time callable once (every draw
goes through the per-run RNG stream passed in at call time) and
everything else per run, through the same
:mod:`repro.experiments.spec` codecs and the one canonical
:class:`~repro.engine.engine.Engine` path as
``run_scenario(spec.build_scenario())`` — so a template run is
bit-for-bit identical to a fresh run of the same (spec, seed), which
the seed-independence tests pin.

It is *not* an optimisation: a template run measures 1.00–1.02x a
fresh one (docs/performance.md), which is why the campaign workers no
longer keep a template registry and simply build each cell fresh.
"""

from __future__ import annotations

from dataclasses import replace

from repro.engine.engine import run_scenario
from repro.metrics.records import RunResult

__all__ = ["CellTemplate"]

#: the fields whose bindings are stateless across runs and so built
#: once per template; the rest — the arrival process above all, which
#: carries per-run issue counters — are rebuilt for every seed
_SHARED = ("cs_time", "delay")


class CellTemplate:
    """One cell family: a :class:`~repro.experiments.spec.CellSpec`
    with its ``seed`` field factored out.

    :attr:`key` — the normalized spec with the seed zeroed — is the
    family's identity: two cells differing only in seed share it, two
    cells differing in anything else (faults and retx included) do
    not.
    """

    __slots__ = ("spec", "key", "_shared", "_per_run")

    def __init__(self, spec) -> None:
        # Imported here: repro.experiments imports this package.
        from repro.experiments.spec import FIELD_NAMES, scenario_bindings

        self.spec = self.key = replace(spec.normalized(), seed=0)
        self._shared = scenario_bindings(self.spec, _SHARED)
        self._per_run = tuple(n for n in FIELD_NAMES if n not in _SHARED)

    def run(self, seed: int, *, require_completion: bool = True) -> RunResult:
        """Run one seed through the canonical engine path — bit-for-bit
        what ``replace(spec, seed=seed).build_scenario()`` would run."""
        from repro.experiments.spec import scenario_bindings
        from repro.workload.scenario import Scenario

        per_run = scenario_bindings(
            replace(self.spec, seed=seed), self._per_run
        )
        return run_scenario(
            Scenario(**self._shared, **per_run),
            require_completion=require_completion,
        )
