"""The simulated message hop, pinned end to end.

Every algorithm's messages take the same hop: ``Network.send`` picks a
delivery time from the channel discipline and the delay model and
queues the delivery on the kernel.  The hop has three branches — the
pre-bound pair delay (RawChannel with a constant model), the sampled
RawChannel delay, and the general path through the discipline (FIFO,
faults, retransmission, or any send while a tap is attached) — and all
three must schedule exactly the same events.

:data:`HOP_DIGESTS` pins every registry algorithm under each delay
kind on both ordering disciplines (N=7, two Poisson seeds).  A
combination that raised when the table was taken is pinned by the
exception's type name.  :func:`test_a_no_op_tap_changes_nothing` runs
each delay kind with a tap attached: the tap sends every message down
the general path, so it checks the RawChannel branches against it.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.engine import Engine
from repro.experiments.parallel import CellSpec
from repro.metrics.io import result_to_dict
from repro.net.channels import FifoChannel, RawChannel
from repro.registry import algorithm_names

N_NODES = 7
SEEDS = (0, 1)
WORKLOAD = ("poisson", 40.0, 200.0)

DELAYS = {
    "constant": ("constant", 5.0),
    "uniform": ("uniform", 1.0, 9.0),
    "exponential": ("exponential", 5.0, 0.0),
    "jittered": ("jittered", 4.0, 2.0),
}
CHANNELS = {"raw": RawChannel, "fifo": FifoChannel}


def hop_digest(algorithm: str, delay: str, channel: str, *, tap=None) -> str:
    """sha256 prefix over both seeds' results, or the type name of the
    exception the first failing seed raised."""
    results = []
    for seed in SEEDS:
        spec = CellSpec(algorithm, N_NODES, seed, WORKLOAD, delay=DELAYS[delay])
        scenario = spec.build_scenario()
        scenario.channel = CHANNELS[channel]()
        engine = Engine(scenario)
        if tap is not None:
            engine.network.add_tap(tap)
        try:
            result = engine.run()
        except Exception as exc:  # pinned by type
            return type(exc).__name__
        results.append(result_to_dict(result))
    text = json.dumps(results, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: ``(algorithm, delay kind, channel) -> digest``, taken before the
#: hop lost its pass-through layers
HOP_DIGESTS = {
    ('agrawal_elabbadi', 'constant', 'raw'): '147dfa3639c7cbfc',
    ('agrawal_elabbadi', 'constant', 'fifo'): '147dfa3639c7cbfc',
    ('agrawal_elabbadi', 'uniform', 'raw'): '722b84b0deae8354',
    ('agrawal_elabbadi', 'uniform', 'fifo'): 'bbd090a9e8c1b9e7',
    ('agrawal_elabbadi', 'exponential', 'raw'): '34e0e1ef367f569d',
    ('agrawal_elabbadi', 'exponential', 'fifo'): '072c510ff03b04c2',
    ('agrawal_elabbadi', 'jittered', 'raw'): '3b5ed163111e7f5b',
    ('agrawal_elabbadi', 'jittered', 'fifo'): '3b5ed163111e7f5b',
    ('broadcast', 'constant', 'raw'): 'd2abc10fcbea9228',
    ('broadcast', 'constant', 'fifo'): 'd2abc10fcbea9228',
    ('broadcast', 'uniform', 'raw'): '2b408ed403603413',
    ('broadcast', 'uniform', 'fifo'): '2b408ed403603413',
    ('broadcast', 'exponential', 'raw'): '8641767e48c5e7bd',
    ('broadcast', 'exponential', 'fifo'): '8641767e48c5e7bd',
    ('broadcast', 'jittered', 'raw'): '4d5c81d2469a328e',
    ('broadcast', 'jittered', 'fifo'): '4d5c81d2469a328e',
    ('centralized', 'constant', 'raw'): 'f9d5311892ff3bce',
    ('centralized', 'constant', 'fifo'): 'f9d5311892ff3bce',
    ('centralized', 'uniform', 'raw'): '5934c9a4d36723cf',
    ('centralized', 'uniform', 'fifo'): '5934c9a4d36723cf',
    ('centralized', 'exponential', 'raw'): '65d0d43f90f6cade',
    ('centralized', 'exponential', 'fifo'): '65d0d43f90f6cade',
    ('centralized', 'jittered', 'raw'): 'c2759cde204d9b36',
    ('centralized', 'jittered', 'fifo'): 'c2759cde204d9b36',
    ('lamport', 'constant', 'raw'): '0c5346aa7814909c',
    ('lamport', 'constant', 'fifo'): '0c5346aa7814909c',
    ('lamport', 'uniform', 'raw'): '2213107187616c8a',
    ('lamport', 'uniform', 'fifo'): 'b9d88a9cc24027ef',
    ('lamport', 'exponential', 'raw'): 'e4a99ad3883b7ef8',
    ('lamport', 'exponential', 'fifo'): 'cb49a2ffc1d6d553',
    ('lamport', 'jittered', 'raw'): '055f55d080b51dbd',
    ('lamport', 'jittered', 'fifo'): '055f55d080b51dbd',
    ('maekawa', 'constant', 'raw'): '2504250342592861',
    ('maekawa', 'constant', 'fifo'): '2504250342592861',
    ('maekawa', 'uniform', 'raw'): '836df39b980c980e',
    ('maekawa', 'uniform', 'fifo'): 'a6391905f152437a',
    ('maekawa', 'exponential', 'raw'): '8adeffffe09b74d3',
    ('maekawa', 'exponential', 'fifo'): 'a0ce0415353402c1',
    ('maekawa', 'jittered', 'raw'): 'db627f3a2a54aaf8',
    ('maekawa', 'jittered', 'fifo'): 'fae95f6ac364d25a',
    ('naimi_trehel', 'constant', 'raw'): 'c8f04bd37557c6a7',
    ('naimi_trehel', 'constant', 'fifo'): 'c8f04bd37557c6a7',
    ('naimi_trehel', 'uniform', 'raw'): '2733dc633ee60634',
    ('naimi_trehel', 'uniform', 'fifo'): '5d3ac1825a960b6f',
    ('naimi_trehel', 'exponential', 'raw'): 'ba851313589b8196',
    ('naimi_trehel', 'exponential', 'fifo'): '4a8e4864869a69f4',
    ('naimi_trehel', 'jittered', 'raw'): 'b5d87e53bb9a80d9',
    ('naimi_trehel', 'jittered', 'fifo'): 'b5d87e53bb9a80d9',
    ('raymond', 'constant', 'raw'): 'f6b6b405fecf1fc5',
    ('raymond', 'constant', 'fifo'): 'f6b6b405fecf1fc5',
    ('raymond', 'uniform', 'raw'): 'a606efd3245bbeea',
    ('raymond', 'uniform', 'fifo'): 'a606efd3245bbeea',
    ('raymond', 'exponential', 'raw'): 'cfab57acdfced9e8',
    ('raymond', 'exponential', 'fifo'): 'cfab57acdfced9e8',
    ('raymond', 'jittered', 'raw'): '5afb8f8eb55c8691',
    ('raymond', 'jittered', 'fifo'): '5afb8f8eb55c8691',
    ('rcv', 'constant', 'raw'): '5a2944eb1a310a85',
    ('rcv', 'constant', 'fifo'): '5a2944eb1a310a85',
    ('rcv', 'uniform', 'raw'): 'e0c2e7451848cb10',
    ('rcv', 'uniform', 'fifo'): '24005dab2c514894',
    ('rcv', 'exponential', 'raw'): 'ca6af780ae12db20',
    ('rcv', 'exponential', 'fifo'): 'c10f6215393dc515',
    ('rcv', 'jittered', 'raw'): 'cd73f27b19a7798e',
    ('rcv', 'jittered', 'fifo'): '775869eb3899f319',
    ('ricart_agrawala', 'constant', 'raw'): '47c421ab5259354e',
    ('ricart_agrawala', 'constant', 'fifo'): '47c421ab5259354e',
    ('ricart_agrawala', 'uniform', 'raw'): 'a0c44cce7b5131aa',
    ('ricart_agrawala', 'uniform', 'fifo'): 'a0c44cce7b5131aa',
    ('ricart_agrawala', 'exponential', 'raw'): 'a0ff2fe1b88c942a',
    ('ricart_agrawala', 'exponential', 'fifo'): 'a0ff2fe1b88c942a',
    ('ricart_agrawala', 'jittered', 'raw'): 'fadf2252ec20a3d1',
    ('ricart_agrawala', 'jittered', 'fifo'): 'fadf2252ec20a3d1',
    ('singhal', 'constant', 'raw'): '02bc377bb0e83410',
    ('singhal', 'constant', 'fifo'): '02bc377bb0e83410',
    ('singhal', 'uniform', 'raw'): '473f1c7e8695662b',
    ('singhal', 'uniform', 'fifo'): '473f1c7e8695662b',
    ('singhal', 'exponential', 'raw'): '550e6c3ea2bdba0d',
    ('singhal', 'exponential', 'fifo'): '7329c4c5d4634e4b',
    ('singhal', 'jittered', 'raw'): '9976e3500ffb0ee0',
    ('singhal', 'jittered', 'fifo'): '9976e3500ffb0ee0',
    ('suzuki_kasami', 'constant', 'raw'): '89c174f35d03054a',
    ('suzuki_kasami', 'constant', 'fifo'): '89c174f35d03054a',
    ('suzuki_kasami', 'uniform', 'raw'): 'cd09cd04d6908b96',
    ('suzuki_kasami', 'uniform', 'fifo'): 'cd09cd04d6908b96',
    ('suzuki_kasami', 'exponential', 'raw'): 'b6b9f49ee0e95fa0',
    ('suzuki_kasami', 'exponential', 'fifo'): 'b6b9f49ee0e95fa0',
    ('suzuki_kasami', 'jittered', 'raw'): '0fb3af0e1e8908c2',
    ('suzuki_kasami', 'jittered', 'fifo'): '0fb3af0e1e8908c2',
    ('tree_quorum', 'constant', 'raw'): 'b3e3d0dc3298d40b',
    ('tree_quorum', 'constant', 'fifo'): 'b3e3d0dc3298d40b',
    ('tree_quorum', 'uniform', 'raw'): 'bcf1b9c061f14a47',
    ('tree_quorum', 'uniform', 'fifo'): '0ebfd2593a4bf001',
    ('tree_quorum', 'exponential', 'raw'): '337413c8d3ecf5af',
    ('tree_quorum', 'exponential', 'fifo'): '4421528184c3a380',
    ('tree_quorum', 'jittered', 'raw'): '4d33ddfee2a518fb',
    ('tree_quorum', 'jittered', 'fifo'): '4d33ddfee2a518fb',
}


def test_the_table_covers_every_combination():
    assert set(HOP_DIGESTS) == {
        (algorithm, delay, channel)
        for algorithm in algorithm_names()
        for delay in DELAYS
        for channel in CHANNELS
    }


@pytest.mark.parametrize(
    "algorithm,delay,channel",
    sorted(HOP_DIGESTS),
    ids=lambda value: str(value),
)
def test_hop_digest(algorithm, delay, channel):
    assert hop_digest(algorithm, delay, channel) == HOP_DIGESTS[
        algorithm, delay, channel
    ]


@pytest.mark.parametrize("delay", sorted(DELAYS))
def test_a_no_op_tap_changes_nothing(delay):
    def tap(src, dst, message, deliver_at):
        pass

    for algorithm in algorithm_names():
        assert hop_digest(algorithm, delay, "raw", tap=tap) == HOP_DIGESTS[
            algorithm, delay, "raw"
        ]
