"""Pinned outputs: what every unit must produce, bit for bit.

``golden.json`` maps a unit's id — which names its whole input, see
``workloads.py`` — to a digest of ``result_to_dict`` of its
``RunResult`` (cells) or to its ``[states, transitions]`` (checks).
Because ids do not mention the benchmark seed and seeds are a sliding
window over scenario seeds, the file pins every unit of benchmark
seeds ``0..15`` (and the smoke test's toy sizes for seeds 0 and 1) in
a few hundred entries.

A seed beyond that range reaches units with no entry: looking one up
raises :class:`NoGoldenError`, which the runner catches in one place
and reports (those units are then held only to the checks that need
no pin — completion, repeat determinism, cache parity).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import workloads
from measure import Tally, run_unit

__all__ = ["PINNED_SEEDS", "NoGoldenError", "Golden", "regenerate"]

PATH = Path(__file__).resolve().parent / "golden.json"

#: benchmark seeds whose every unit is pinned, per size
PINNED_SEEDS = {"full": 16, "toy": 2}


class NoGoldenError(LookupError):
    """No pinned output for this unit (a seed outside the pinned range)."""


class Golden:
    def __init__(self) -> None:
        self.outputs: Dict[str, object] = json.loads(PATH.read_text())["outputs"]

    def expected(self, unit_id: str):
        try:
            return self.outputs[unit_id]
        except KeyError:
            raise NoGoldenError(unit_id) from None


def regenerate() -> int:
    """Run every unit of every pinned seed once and rewrite the file."""
    outputs: Dict[str, object] = {}
    tally = Tally()
    for name in workloads.WORKLOADS:
        for size, seeds in PINNED_SEEDS.items():
            for seed in range(seeds):
                for unit in workloads.build(name, seed, size).units:
                    if unit.id not in outputs:
                        outputs[unit.id] = run_unit(unit, tally).output
        print(f"golden: {name}: {len(outputs)} units pinned so far", flush=True)
    if tally.failed:
        print("golden: refusing to pin failing units:", *tally.notes, sep="\n  ")
        return 1
    document = {
        "note": (
            "Pinned outputs of benchmarks/suite; regenerate with "
            "`python3 benchmarks/suite/run.py --regen-golden` only when a "
            "behaviour change is intended."
        ),
        "pinned_seeds": PINNED_SEEDS,
        "outputs": dict(sorted(outputs.items())),
    }
    PATH.write_text(json.dumps(document, indent=1) + "\n")
    print(f"golden: wrote {len(outputs)} units to {PATH}")
    return 0
