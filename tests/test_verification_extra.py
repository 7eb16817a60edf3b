"""Additional verification-layer coverage: LemmaMonitor under
sustained load and the merge algorithm's edge cases."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tuples import ReqTuple
from repro.core.verification import LemmaMonitor, merge_global_order
from tests.conftest import started_engine


@settings(max_examples=100, deadline=None)
@given(
    base=st.lists(st.integers(0, 8), unique=True, max_size=8),
    cuts=st.lists(st.integers(0, 8), min_size=2, max_size=4),
)
def test_merge_of_fragments_recovers_base_order(base, cuts):
    """Any set of contiguous fragments of one order merges back into
    an order consistent with it."""
    order = [ReqTuple(x, 1) for x in base]
    fragments = []
    for c in cuts:
        lo = min(c, len(order))
        hi = min(lo + 3, len(order))
        fragments.append(order[lo:hi])
    merged = merge_global_order(fragments)
    assert merged is not None
    pos = {t: i for i, t in enumerate(merged)}
    for frag in fragments:
        indices = [pos[t] for t in frag]
        assert indices == sorted(indices)


@settings(max_examples=100, deadline=None)
@given(
    xs=st.lists(st.integers(0, 6), unique=True, min_size=2, max_size=6),
)
def test_merge_detects_any_single_swap(xs):
    order = [ReqTuple(x, 1) for x in xs]
    swapped = [order[1], order[0]] + order[2:]
    assert merge_global_order([order, swapped]) is None


def test_monitor_over_multi_round_load():
    """Rounds of requests with watermark turnover: the cross-time
    pair ledger must accept the honest protocol run."""
    engine = started_engine("rcv", 6, seed=6, hold=5.0)
    monitor = LemmaMonitor(engine.sim, engine.nodes, period=2.0)
    monitor.start()

    rounds = {i: 0 for i in range(6)}

    def on_released(nid):
        if rounds[nid] < 2:  # three requests per node overall
            rounds[nid] += 1
            engine.sim.schedule(1.0, engine.drivers[nid].issue)

    engine.hooks.subscribe_released(on_released)
    for driver in engine.drivers:
        driver.issue()
    engine.sim.run()
    assert all(n.cs_count == 3 for n in engine.nodes)
    assert monitor.checks > 20


def test_monitor_ignores_non_rcv_nodes():
    engine = started_engine("centralized", 3)
    monitor = LemmaMonitor(engine.sim, engine.nodes, period=1.0)
    monitor.check_now()  # no RCV nodes: trivially consistent
    assert monitor.checks == 1
