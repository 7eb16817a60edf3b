"""Golden-trace regression test.

Pins the exact message sequence of one small deterministic run
(N=4 burst, seed 0, constant delays).  Any change to the protocol's
message flow — intended or not — shows up here as a readable diff of
the trace, complementing the behavioural tests which only check
outcomes.  If you change the protocol deliberately, regenerate with::

    python -m repro.cli run --nodes 4 --trace
"""

from repro.engine import Engine
from repro.trace import TraceRecorder
from repro.workload import BurstArrivals, Scenario

EXPECTED = [
    # (time, kind, src, dst) — the full life of a 4-node burst.
    (0.0, "RM", 0, 3),
    (0.0, "RM", 1, 3),
    (0.0, "RM", 2, 1),
    (0.0, "RM", 3, 1),
    (5.0, "RM", 3, 2),   # 0's request, hop 2
    (5.0, "RM", 3, 0),   # 1's request, hop 2
    (5.0, "RM", 1, 0),   # 2's request, hop 2
    (5.0, "RM", 1, 2),   # 3's request, hop 2
    (10.0, "RM", 2, 1),  # 0's request, hop 3
    (10.0, "RM", 0, 2),  # 1's request, hop 3
    (10.0, "IM", 0, 1),  # 2 ordered; its predecessor 1 is informed
    (10.0, "RM", 2, 0),  # 3's request, hop 3
    (15.0, "EM", 1, 0),  # 0 ordered with highest priority: enter
    (15.0, "IM", 2, 0),  # 1 ordered; predecessor 0 informed
    (15.0, "IM", 0, 2),  # 3 ordered; predecessor 2 informed
    (30.0, "EM", 0, 1),  # 0 leaves, wakes 1
    (45.0, "EM", 1, 2),  # 1 leaves, wakes 2
    (60.0, "EM", 2, 3),  # 2 leaves, wakes 3
]


def test_four_node_burst_golden_trace():
    engine = Engine(
        Scenario(algorithm="rcv", n_nodes=4, arrivals=BurstArrivals(), seed=0)
    )
    recorder = TraceRecorder(engine)
    result = engine.run()
    assert result.completed_count == 4
    actual = [
        (e.time, e.kind, e.src, e.dst)
        for e in recorder.filter(category="send")
    ]
    assert actual == EXPECTED


def test_golden_trace_properties():
    """Structural facts the golden trace encodes, stated explicitly so
    a regenerated trace can be sanity-checked against them."""
    kinds = [k for _, k, _, _ in EXPECTED]
    assert kinds.count("EM") == 4          # one EM per CS entry
    assert kinds.count("IM") == 3          # one IM per non-top ordering
    assert kinds.count("RM") == 11         # roaming cost of the burst
    times = [t for t, _, _, _ in EXPECTED]
    assert times == sorted(times)
    # consecutive CS wake-ups are separated by Tc + Tn = 15
    em_times = [t for t, k, _, _ in EXPECTED if k == "EM"]
    assert [b - a for a, b in zip(em_times[1:], em_times[2:])] == [15.0, 15.0]
