"""RCV runs at scale, pinned with their representation counters.

The reference matrix (``test_reference_matrix``) compares behaviour
only: it strips the ``si_*``/``exch_*`` counters, which record how much
work the incremental Exchange, prune and tally did.  The suite's
goldens pin those counters, but only at toy size in tier-1.  This
table pins the whole ``result_to_dict`` — counters included — of
eight RCV runs up to N=70, so a change to the row loops that keeps
the behaviour but moves a counter (a row cloned, a prune run or
skipped, a front reconciled) fails here.

Regenerate with ``PYTHONPATH=src python tests/test_counter_digests.py``
only when a counter is meant to move.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import RCVConfig, RCVNode
from repro.engine import run_scenario
from repro.experiments.parallel import CellSpec
from repro.metrics.io import result_to_dict
from repro.workload import Scenario
from repro.workload.arrivals import TraceArrivals

RETX = ("retx", 5.0, 1.0, 100)
EXPONENTIAL = ("exponential", 5.0, 0.0)


def _spec_cell(spec: CellSpec):
    return run_scenario(spec.build_scenario(), require_completion=not spec.faults)


def _config_cell(n: int, arrivals, config: RCVConfig):
    return run_scenario(
        Scenario("rcv", n, arrivals, seed=0, algo_kwargs={"config": config})
    )


def _burst(n: int):
    return _spec_cell(CellSpec("rcv", n, 0, ("burst", 1)))


#: name -> a callable running the cell
CELLS = {
    "burst-n12": lambda: _burst(12),
    "burst-n30": lambda: _burst(30),
    "burst-n70": lambda: _burst(70),
    "poisson-n30-exponential": lambda: _spec_cell(
        CellSpec("rcv", 30, 0, ("poisson", 100.0, 1500.0), delay=EXPONENTIAL)
    ),
    "drop-10%-retx-n20": lambda: _spec_cell(
        CellSpec("rcv", 20, 0, ("burst", 1), faults=(("drop", 0.10),), retx=RETX)
    ),
    "crash-recover-n20": lambda: _spec_cell(
        CellSpec(
            "rcv",
            20,
            0,
            ("burst", 1),
            faults=(("crash", ((19, 20.0),)), ("recover", ((19, 200.0),))),
            retx=RETX,
        )
    ),
    "paper-rule-im-n20": lambda: _config_cell(
        20,
        TraceArrivals({i: [0.0, 60.0] for i in range(20)}),
        RCVConfig(rule="paper", exchange_on_im=True, on_inconsistency="count"),
    ),
    # two members excluded: run_order's excluded-tally branch
    "excluded-n16": lambda: _config_cell(
        16,
        TraceArrivals({i: [0.0, 40.0] for i in range(14)}),
        RCVConfig(exclude_nodes=frozenset({14, 15})),
    ),
}


def counter_digest(name: str) -> str:
    """sha256 prefix of the cell's full result, counters included."""
    text = json.dumps(result_to_dict(CELLS[name]()), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: name -> digest, taken before the row loops were rewritten
COUNTER_DIGESTS = {
    "burst-n12": "63a11ae4b1b57d65",
    "burst-n30": "676779da6191d2bb",
    "burst-n70": "4143fc92db0ae0d3",
    "poisson-n30-exponential": "12dbc61010a2188e",
    "drop-10%-retx-n20": "f848ae7c9cee167b",
    "crash-recover-n20": "fe0b3fe0811d39c2",
    "paper-rule-im-n20": "dfc5c78393fd2883",
    "excluded-n16": "4c9d859cd7108214",
}


def test_the_table_covers_every_cell():
    assert set(COUNTER_DIGESTS) == set(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_counters_are_pinned(name):
    assert counter_digest(name) == COUNTER_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CELLS))
def test_a_release_finds_no_ordered_tuple_in_any_mnl(name, monkeypatch):
    """``_do_release`` prunes only the watermark: that is whole because
    every Exchange and Order leaves no NONL tuple in any MNL, which this
    checks at each release of each cell."""
    releases = []
    release = RCVNode._do_release

    def checked_release(node):
        ordered = set(node.si.nonl)
        stray = [
            (j, item)
            for j, row in enumerate(node.si.rows)
            for item in row.cols.items()
            if item in ordered
        ]
        assert not stray, (node.node_id, stray)
        releases.append(node.node_id)
        release(node)

    monkeypatch.setattr(RCVNode, "_do_release", checked_release)
    CELLS[name]()
    assert releases


if __name__ == "__main__":
    for name in CELLS:
        print(f'    "{name}": "{counter_digest(name)}",')
