"""RCV under non-FIFO delivery — the paper's headline robustness
claim (§1): out-of-order messages must not affect correctness."""

import pytest

from repro.core import RCVConfig
from repro.net.delay import ConstantDelay, ExponentialDelay, UniformDelay
from repro.workload import BurstArrivals, PoissonArrivals, Scenario, run_scenario


@pytest.mark.parametrize(
    "delay_model",
    [UniformDelay(1.0, 9.0), ExponentialDelay(5.0, minimum=0.5)],
    ids=["uniform", "exponential"],
)
@pytest.mark.parametrize("seed", range(3))
def test_reordering_network_burst(delay_model, seed):
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=10,
            arrivals=BurstArrivals(),
            seed=seed,
            delay_model=delay_model,
        )
    )
    assert result.completed_count == 10
    assert result.extra["nonl_inconsistencies"] == 0


@pytest.mark.parametrize("seed", range(3))
def test_reordering_network_sustained(seed):
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=8,
            arrivals=PoissonArrivals(rate=1 / 6.0),
            seed=seed,
            delay_model=UniformDelay(0.5, 12.0),  # aggressive spread
            issue_deadline=3_000,
            drain_deadline=15_000,
        )
    )
    assert result.all_completed()
    assert result.extra["nonl_inconsistencies"] == 0


def test_reordering_actually_happened():
    """Make sure the stress above isn't vacuous: with jittered delays
    and the raw channel, deliveries do overtake each other."""
    from repro.engine import Engine

    overtakes = [0]
    last = {}

    def watch(src, dst, msg, at):
        key = (src, dst)
        if key in last and at < last[key]:
            overtakes[0] += 1
        last[key] = max(last.get(key, 0.0), at)

    engine = Engine(
        Scenario(
            algorithm="rcv",
            n_nodes=8,
            arrivals=PoissonArrivals(rate=1 / 6.0),
            seed=1,
            delay_model=UniformDelay(0.5, 12.0),
            issue_deadline=3_000,
            drain_deadline=15_000,
        )
    )
    engine.network.add_tap(watch)
    result = engine.run(require_completion=False)
    assert result.all_completed()
    assert overtakes[0] > 0, "stress scenario produced no reordering"


def test_fifo_and_raw_identical_on_constant_delay():
    """With constant delays the channel discipline is irrelevant; the
    two runs must produce identical metrics (determinism check)."""
    base = dict(
        algorithm="rcv",
        n_nodes=9,
        arrivals=BurstArrivals(),
        seed=4,
        delay_model=ConstantDelay(5.0),
    )
    r_raw = run_scenario(Scenario(fifo=False, **base))
    r_fifo = run_scenario(Scenario(fifo=True, **base))
    assert r_raw.messages_total == r_fifo.messages_total
    assert r_raw.mean_response_time == r_fifo.mean_response_time
    assert [r.grant_time for r in r_raw.records] == [
        r.grant_time for r in r_fifo.records
    ]


def test_same_seed_reproduces_exactly():
    """Bit-for-bit determinism of (scenario, seed)."""
    scenario = lambda: Scenario(
        algorithm="rcv",
        n_nodes=10,
        arrivals=PoissonArrivals(rate=1 / 10.0),
        seed=99,
        delay_model=UniformDelay(1.0, 9.0),
        issue_deadline=2_000,
        drain_deadline=8_000,
    )
    a = run_scenario(scenario())
    b = run_scenario(scenario())
    assert a.messages_total == b.messages_total
    assert [r.release_time for r in a.records] == [
        r.release_time for r in b.records
    ]
