"""Tests for delay models."""

import random

import pytest

from repro.net.delay import (
    ConstantDelay,
    ExponentialDelay,
    JitteredDelay,
    UniformDelay,
)


@pytest.fixture
def rng():
    return random.Random(0)


def test_constant_delay(rng):
    d = ConstantDelay(5.0)
    assert d.sample(0, 1, rng) == 5.0
    assert d.mean() == 5.0


def test_constant_delay_rejects_negative():
    with pytest.raises(ValueError):
        ConstantDelay(-1)


def test_uniform_delay_bounds_and_mean(rng):
    d = UniformDelay(2.0, 8.0)
    samples = [d.sample(0, 1, rng) for _ in range(2000)]
    assert all(2.0 <= s <= 8.0 for s in samples)
    assert d.mean() == 5.0
    assert abs(sum(samples) / len(samples) - 5.0) < 0.2


def test_uniform_delay_validation():
    with pytest.raises(ValueError):
        UniformDelay(5.0, 2.0)
    with pytest.raises(ValueError):
        UniformDelay(-1.0, 2.0)


def test_exponential_delay_floor_and_mean(rng):
    d = ExponentialDelay(4.0, minimum=1.0)
    samples = [d.sample(0, 1, rng) for _ in range(5000)]
    assert all(s >= 1.0 for s in samples)
    assert d.mean() == 5.0
    assert abs(sum(samples) / len(samples) - 5.0) < 0.3


def test_exponential_delay_validation():
    with pytest.raises(ValueError):
        ExponentialDelay(0.0)
    with pytest.raises(ValueError):
        ExponentialDelay(1.0, minimum=-0.1)


def test_jittered_delay_scalar_base(rng):
    d = JitteredDelay(5.0, 2.0)
    samples = [d.sample(0, 1, rng) for _ in range(1000)]
    assert all(3.0 <= s <= 7.0 for s in samples)
    assert d.mean() == 5.0


def test_jittered_delay_clips_at_zero(rng):
    d = JitteredDelay(1.0, 5.0)
    samples = [d.sample(0, 1, rng) for _ in range(500)]
    assert all(s >= 0.0 for s in samples)


def test_jittered_delay_callable_base(rng):
    latency = lambda src, dst: 10.0 if (src, dst) == (0, 1) else 2.0
    d = JitteredDelay(latency, 0.0)
    assert d.sample(0, 1, rng) == 10.0
    assert d.sample(1, 0, rng) == 2.0
    with pytest.raises(NotImplementedError):
        d.mean()


def test_jitter_enables_reordering(rng):
    """Two consecutive sends may arrive out of order — the property
    the non-FIFO experiments rely on."""
    d = UniformDelay(1.0, 9.0)
    reordered = False
    last = None
    t = 0.0
    for _ in range(200):
        arrival = t + d.sample(0, 1, rng)
        if last is not None and arrival < last:
            reordered = True
            break
        last = arrival
        t += 0.5
    assert reordered


@pytest.mark.parametrize(
    "build",
    [
        lambda: ConstantDelay(float("nan")),
        lambda: ConstantDelay(float("inf")),
        lambda: UniformDelay(0.0, float("inf")),
        lambda: UniformDelay(float("nan"), 1.0),
        lambda: ExponentialDelay(float("inf")),
        lambda: ExponentialDelay(float("nan")),
        lambda: ExponentialDelay(1.0, minimum=float("inf")),
        lambda: JitteredDelay(float("nan"), 1.0),
        lambda: JitteredDelay(5.0, float("inf")),
        lambda: JitteredDelay(lambda src, dst: 1.0, float("nan")),
    ],
    ids=[
        "constant-nan", "constant-inf", "uniform-high-inf", "uniform-low-nan",
        "exponential-inf", "exponential-nan", "exponential-min-inf",
        "jittered-base-nan", "jittered-inf", "jittered-callable-nan",
    ],
)
def test_non_finite_parameters_are_refused(build):
    """Such a model would put events at t=nan or t=inf."""
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize(
    "model,draw",
    [
        (ExponentialDelay(5.0), lambda r: r.expovariate(1.0 / 5.0)),
        (
            ExponentialDelay(3.0, minimum=0.5),
            lambda r: 0.5 + r.expovariate(1.0 / 3.0),
        ),
        (UniformDelay(1.0, 9.0), lambda r: r.uniform(1.0, 9.0)),
    ],
    ids=["exponential", "exponential-min", "uniform"],
)
def test_samplers_draw_the_floats_the_random_module_draws(model, draw):
    """The samplers do ``Random``'s arithmetic themselves (one call
    frame less per message); the floats and the stream must not move."""
    mine, theirs = random.Random(7), random.Random(7)
    assert [model.sample(0, 1, mine) for _ in range(30_000)] == [
        draw(theirs) for _ in range(30_000)
    ]
    assert mine.random() == theirs.random()
