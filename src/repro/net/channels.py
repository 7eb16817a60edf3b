"""Per-pair channel disciplines.

The paper's headline robustness claim is that the algorithm needs no
FIFO guarantee from the transport.  We therefore make the discipline
explicit and swappable:

* :class:`RawChannel` — messages arrive after their sampled delay,
  so a later send may overtake an earlier one (non-FIFO);
* :class:`FifoChannel` — delivery time is clamped to be no earlier
  than the previous delivery on the same ordered pair, which is how a
  TCP-like transport would behave.

Baselines that *require* FIFO (e.g. Maekawa without the conflict
patch) are run on :class:`FifoChannel`; the RCV experiments run on
both to demonstrate the claim.  A scenario says which with its
``fifo`` flag, and the engine builds a fresh discipline for each run,
so a FIFO channel's per-pair state lives exactly one run.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, Tuple

from repro.net.delay import DelayModel

__all__ = ["ChannelDiscipline", "RawChannel", "FifoChannel"]


class ChannelDiscipline(ABC):
    """Computes the delivery timestamps of each message on a pair."""

    @abstractmethod
    def delivery_times(
        self,
        src: int,
        dst: int,
        send_time: float,
        delay_model: DelayModel,
        rng: random.Random,
    ) -> Tuple[float, ...]:
        """Absolute simulated times at which one send is delivered.

        Usually exactly one.  Fault-injecting disciplines (see
        :class:`~repro.net.faults.FaultyChannel`) return zero
        timestamps (message dropped) or two (message duplicated).
        """


class RawChannel(ChannelDiscipline):
    """Delay-only delivery; permits reordering (the paper's model)."""

    def delivery_times(
        self,
        src: int,
        dst: int,
        send_time: float,
        delay_model: DelayModel,
        rng: random.Random,
    ) -> Tuple[float, ...]:
        return (send_time + delay_model.sample(src, dst, rng),)


class FifoChannel(ChannelDiscipline):
    """Per-ordered-pair FIFO: no message overtakes an earlier one."""

    def __init__(self) -> None:
        self._last_delivery: Dict[Tuple[int, int], float] = {}

    def delivery_times(
        self,
        src: int,
        dst: int,
        send_time: float,
        delay_model: DelayModel,
        rng: random.Random,
    ) -> Tuple[float, ...]:
        raw = send_time + delay_model.sample(src, dst, rng)
        key = (src, dst)
        clamped = max(raw, self._last_delivery.get(key, 0.0))
        self._last_delivery[key] = clamped
        return (clamped,)
