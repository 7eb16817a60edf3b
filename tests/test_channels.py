"""Tests for channel disciplines (FIFO vs reordering)."""

import random

from repro.net.channels import FifoChannel, RawChannel
from repro.net.delay import ConstantDelay, UniformDelay


def delivery(ch, src, dst, send_time, delays, rng):
    """The one delivery time a fault-free discipline gives a send."""
    (deliver_at,) = ch.delivery_times(src, dst, send_time, delays, rng)
    return deliver_at


def test_raw_channel_is_delay_only():
    ch = RawChannel()
    rng = random.Random(0)
    assert delivery(ch, 0, 1, 10.0, ConstantDelay(5.0), rng) == 15.0


def test_raw_channel_permits_overtaking():
    ch = RawChannel()
    rng = random.Random(1)
    delays = UniformDelay(1.0, 9.0)
    arrivals = [
        delivery(ch, 0, 1, float(t), delays, rng) for t in range(100)
    ]
    assert any(b < a for a, b in zip(arrivals, arrivals[1:]))


def test_fifo_channel_never_overtakes():
    ch = FifoChannel()
    rng = random.Random(1)
    delays = UniformDelay(1.0, 9.0)
    arrivals = [
        delivery(ch, 0, 1, float(t), delays, rng) for t in range(200)
    ]
    assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))


def test_fifo_channel_is_per_ordered_pair():
    ch = FifoChannel()
    rng = random.Random(2)
    delays = UniformDelay(1.0, 9.0)
    # Saturate the (0,1) ordering state…
    for t in range(50):
        delivery(ch, 0, 1, float(t), delays, rng)
    # …the reverse direction is unaffected by it.
    first_reverse = delivery(ch, 1, 0, 0.0, ConstantDelay(1.0), rng)
    assert first_reverse == 1.0
