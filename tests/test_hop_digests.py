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

:data:`OUTAGE_DIGESTS` pins the hop under outages: every registry
algorithm's burst at N=3 and N=7 through a halving partition, a crash
of the last node, and that crash with a recovery, each bare (the
network asks the fault plan) and under retransmission (the reliable
channel asks it, attempt by attempt).  The whole result is pinned,
horizon included.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.engine import Engine, run_scenario
from repro.experiments.parallel import CellSpec
from repro.metrics.io import result_to_dict
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
CHANNELS = ("raw", "fifo")


def hop_digest(algorithm: str, delay: str, channel: str, *, tap=None) -> str:
    """sha256 prefix over both seeds' results, or the type name of the
    exception the first failing seed raised."""
    results = []
    for seed in SEEDS:
        spec = CellSpec(algorithm, N_NODES, seed, WORKLOAD, delay=DELAYS[delay])
        scenario = spec.build_scenario()
        scenario.fifo = channel == "fifo"
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


# ----------------------------------------------------------------------
# outages: partitions and crashes, bare and under retransmission
# ----------------------------------------------------------------------
OUTAGE_N = (3, 7)
OUTAGE_RETX = {"bare": (), "retx": ("retx", 5.0, 1.0, 100)}


def _outages(n: int):
    half, rest = tuple(range(n // 2)), tuple(range(n // 2, n))
    crash = ("crash", ((n - 1, 20.0),))
    return {
        "partition-30-60": (("partition", ((30.0, 60.0, half, rest),)),),
        "crash-last@20": (crash,),
        "crash-last@20-recover@200": (crash, ("recover", ((n - 1, 200.0),))),
    }


OUTAGES = tuple(_outages(3))


def outage_digest(algorithm: str, n: int, outage: str, retx: str) -> str:
    """sha256 prefix of one burst cell's whole result, horizon included,
    or the type name of the exception it raised."""
    spec = CellSpec(
        algorithm,
        n,
        0,
        ("burst", 1),
        faults=_outages(n)[outage],
        retx=OUTAGE_RETX[retx],
    )
    try:
        result = run_scenario(spec.build_scenario(), require_completion=False)
    except Exception as exc:  # pinned by type
        return type(exc).__name__
    text = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: ``(algorithm, N, outage, bare|retx) -> digest``, taken while the
#: bare network still kept its own partition and crash sets
OUTAGE_DIGESTS = {
    ('agrawal_elabbadi', 3, 'partition-30-60', 'bare'): 'd568694c0fc574c2',
    ('agrawal_elabbadi', 3, 'partition-30-60', 'retx'): 'dcd8e703993ace91',
    ('agrawal_elabbadi', 3, 'crash-last@20', 'bare'): '09550ff36e849bb5',
    ('agrawal_elabbadi', 3, 'crash-last@20', 'retx'): 'b066c8c34ba52c48',
    ('agrawal_elabbadi', 3, 'crash-last@20-recover@200', 'bare'): '296332acc35532f4',
    ('agrawal_elabbadi', 3, 'crash-last@20-recover@200', 'retx'): 'd5dc2d58a5a25463',
    ('agrawal_elabbadi', 7, 'partition-30-60', 'bare'): '5f40d07251bb5703',
    ('agrawal_elabbadi', 7, 'partition-30-60', 'retx'): 'f34a435012f1c579',
    ('agrawal_elabbadi', 7, 'crash-last@20', 'bare'): 'e135cb2c76a5c3de',
    ('agrawal_elabbadi', 7, 'crash-last@20', 'retx'): '970651b568e3caf6',
    ('agrawal_elabbadi', 7, 'crash-last@20-recover@200', 'bare'): '3c572061419ae3e9',
    ('agrawal_elabbadi', 7, 'crash-last@20-recover@200', 'retx'): '4a7fe298a137e024',
    ('broadcast', 3, 'partition-30-60', 'bare'): '3f349866dc127b38',
    ('broadcast', 3, 'partition-30-60', 'retx'): 'eac5b3d46165e09d',
    ('broadcast', 3, 'crash-last@20', 'bare'): '4f0d6ab40961f14c',
    ('broadcast', 3, 'crash-last@20', 'retx'): '764e3ba49e3b8a75',
    ('broadcast', 3, 'crash-last@20-recover@200', 'bare'): '04e4ae57e91c6d53',
    ('broadcast', 3, 'crash-last@20-recover@200', 'retx'): '966fb5bb9d5feade',
    ('broadcast', 7, 'partition-30-60', 'bare'): 'a032bd5cad904ccb',
    ('broadcast', 7, 'partition-30-60', 'retx'): '9f62a7ffe21f7a37',
    ('broadcast', 7, 'crash-last@20', 'bare'): '90dde6df418ece9a',
    ('broadcast', 7, 'crash-last@20', 'retx'): '104a61c7364f8e1e',
    ('broadcast', 7, 'crash-last@20-recover@200', 'bare'): 'fcbc2e925880fdd1',
    ('broadcast', 7, 'crash-last@20-recover@200', 'retx'): 'ac21f5b55028936b',
    ('centralized', 3, 'partition-30-60', 'bare'): '7cfb31e4f6438003',
    ('centralized', 3, 'partition-30-60', 'retx'): 'a123eff7624f1563',
    ('centralized', 3, 'crash-last@20', 'bare'): '00004407b3b35786',
    ('centralized', 3, 'crash-last@20', 'retx'): '1d3b4dc1f488fd3c',
    ('centralized', 3, 'crash-last@20-recover@200', 'bare'): '9f934eea34dab5a5',
    ('centralized', 3, 'crash-last@20-recover@200', 'retx'): '68d03dd56e6bb754',
    ('centralized', 7, 'partition-30-60', 'bare'): 'd72b04276f860d2a',
    ('centralized', 7, 'partition-30-60', 'retx'): 'f79c11f64edc4a5c',
    ('centralized', 7, 'crash-last@20', 'bare'): '52b72704d3e3b6ba',
    ('centralized', 7, 'crash-last@20', 'retx'): 'ffa97cd6abf484fe',
    ('centralized', 7, 'crash-last@20-recover@200', 'bare'): 'e284550eccd900b7',
    ('centralized', 7, 'crash-last@20-recover@200', 'retx'): '869440459a4a43d2',
    ('lamport', 3, 'partition-30-60', 'bare'): '109ce3847c5695e1',
    ('lamport', 3, 'partition-30-60', 'retx'): '7fcbdc06f5b900c8',
    ('lamport', 3, 'crash-last@20', 'bare'): '14be9d19c5e67145',
    ('lamport', 3, 'crash-last@20', 'retx'): '9eecfa56e01477a1',
    ('lamport', 3, 'crash-last@20-recover@200', 'bare'): '8088f26029c0ad64',
    ('lamport', 3, 'crash-last@20-recover@200', 'retx'): 'e47406b10ad587a5',
    ('lamport', 7, 'partition-30-60', 'bare'): 'e448a6b3bf174b9d',
    ('lamport', 7, 'partition-30-60', 'retx'): 'b86d8da1091fb861',
    ('lamport', 7, 'crash-last@20', 'bare'): 'ae4d157d5b20000c',
    ('lamport', 7, 'crash-last@20', 'retx'): '063ef7fece78eed3',
    ('lamport', 7, 'crash-last@20-recover@200', 'bare'): 'e59ced5e29c4c6de',
    ('lamport', 7, 'crash-last@20-recover@200', 'retx'): 'f191bcbc4cc029d0',
    ('maekawa', 3, 'partition-30-60', 'bare'): '969ef53a86f8be3f',
    ('maekawa', 3, 'partition-30-60', 'retx'): '1f132b2bb07fbc03',
    ('maekawa', 3, 'crash-last@20', 'bare'): 'f41f5e5c99614d58',
    ('maekawa', 3, 'crash-last@20', 'retx'): 'fee1451b6f6e95de',
    ('maekawa', 3, 'crash-last@20-recover@200', 'bare'): 'da2e087fc16b1f21',
    ('maekawa', 3, 'crash-last@20-recover@200', 'retx'): 'b454d131db721d5c',
    ('maekawa', 7, 'partition-30-60', 'bare'): 'fe30382ffe32d329',
    ('maekawa', 7, 'partition-30-60', 'retx'): 'a7fcee38c0f19d97',
    ('maekawa', 7, 'crash-last@20', 'bare'): 'fe30382ffe32d329',
    ('maekawa', 7, 'crash-last@20', 'retx'): '784c9eee5db17d6f',
    ('maekawa', 7, 'crash-last@20-recover@200', 'bare'): '756aa394645d56e1',
    ('maekawa', 7, 'crash-last@20-recover@200', 'retx'): '02495da2c4f7208f',
    ('naimi_trehel', 3, 'partition-30-60', 'bare'): '92745438a59801a0',
    ('naimi_trehel', 3, 'partition-30-60', 'retx'): 'da755c69a4a3fb48',
    ('naimi_trehel', 3, 'crash-last@20', 'bare'): '8887c0972578452f',
    ('naimi_trehel', 3, 'crash-last@20', 'retx'): 'cb797b5f1140ddb7',
    ('naimi_trehel', 3, 'crash-last@20-recover@200', 'bare'): '88adcacf226cee32',
    ('naimi_trehel', 3, 'crash-last@20-recover@200', 'retx'): '25adf65b48917a27',
    ('naimi_trehel', 7, 'partition-30-60', 'bare'): 'ae1ae9a97eb066ba',
    ('naimi_trehel', 7, 'partition-30-60', 'retx'): '761ca30289e76549',
    ('naimi_trehel', 7, 'crash-last@20', 'bare'): '990315601d07b7f3',
    ('naimi_trehel', 7, 'crash-last@20', 'retx'): 'b79a39c74cdbaf18',
    ('naimi_trehel', 7, 'crash-last@20-recover@200', 'bare'): '5060dd9b87df34a8',
    ('naimi_trehel', 7, 'crash-last@20-recover@200', 'retx'): 'f5f62dc493072088',
    ('raymond', 3, 'partition-30-60', 'bare'): 'b4c764b31cfe5d83',
    ('raymond', 3, 'partition-30-60', 'retx'): '515971e0663ca6ed',
    ('raymond', 3, 'crash-last@20', 'bare'): '42f73de3e25b40da',
    ('raymond', 3, 'crash-last@20', 'retx'): '867e6011cd078560',
    ('raymond', 3, 'crash-last@20-recover@200', 'bare'): '2823fcf1d4b9bfe4',
    ('raymond', 3, 'crash-last@20-recover@200', 'retx'): '1390ffc78d460ae8',
    ('raymond', 7, 'partition-30-60', 'bare'): 'cad196b590c27b3a',
    ('raymond', 7, 'partition-30-60', 'retx'): '2c1e89160eba3b48',
    ('raymond', 7, 'crash-last@20', 'bare'): 'a5525847374c029e',
    ('raymond', 7, 'crash-last@20', 'retx'): '057116adfd21fbfa',
    ('raymond', 7, 'crash-last@20-recover@200', 'bare'): '4410a71e3a7544c5',
    ('raymond', 7, 'crash-last@20-recover@200', 'retx'): '001e0c9f7b75839a',
    ('rcv', 3, 'partition-30-60', 'bare'): '6ae9733309e0d986',
    ('rcv', 3, 'partition-30-60', 'retx'): '68ee322dcc48b4a2',
    ('rcv', 3, 'crash-last@20', 'bare'): '8801b00f3e9c5092',
    ('rcv', 3, 'crash-last@20', 'retx'): 'b523575f124c1f31',
    ('rcv', 3, 'crash-last@20-recover@200', 'bare'): '43451c22aaa52928',
    ('rcv', 3, 'crash-last@20-recover@200', 'retx'): '13854acbee9a0eab',
    ('rcv', 7, 'partition-30-60', 'bare'): '26f5aadfd5885648',
    ('rcv', 7, 'partition-30-60', 'retx'): 'c748bb18c68c4eaf',
    ('rcv', 7, 'crash-last@20', 'bare'): '7d89636c6d8c6b66',
    ('rcv', 7, 'crash-last@20', 'retx'): 'c25054f9079ecb08',
    ('rcv', 7, 'crash-last@20-recover@200', 'bare'): '712885d8715fd91e',
    ('rcv', 7, 'crash-last@20-recover@200', 'retx'): 'fc5f6c3b32104f80',
    ('ricart_agrawala', 3, 'partition-30-60', 'bare'): 'dcd41601576e9ce1',
    ('ricart_agrawala', 3, 'partition-30-60', 'retx'): '04c2afecbe145a19',
    ('ricart_agrawala', 3, 'crash-last@20', 'bare'): '7216b8d2ad4394d8',
    ('ricart_agrawala', 3, 'crash-last@20', 'retx'): '353db170d3a5b29a',
    ('ricart_agrawala', 3, 'crash-last@20-recover@200', 'bare'): 'fb06a21e39df00f4',
    ('ricart_agrawala', 3, 'crash-last@20-recover@200', 'retx'): '45c7115449adba49',
    ('ricart_agrawala', 7, 'partition-30-60', 'bare'): 'de8f17e9928a91ea',
    ('ricart_agrawala', 7, 'partition-30-60', 'retx'): '16e220746cfe8d45',
    ('ricart_agrawala', 7, 'crash-last@20', 'bare'): 'cbfbaceaa942104e',
    ('ricart_agrawala', 7, 'crash-last@20', 'retx'): '20cd6a316d009a14',
    ('ricart_agrawala', 7, 'crash-last@20-recover@200', 'bare'): '60bcdec65c0b2ffc',
    ('ricart_agrawala', 7, 'crash-last@20-recover@200', 'retx'): 'fc8f4e8d74da7110',
    ('singhal', 3, 'partition-30-60', 'bare'): '3be08c4351a55a34',
    ('singhal', 3, 'partition-30-60', 'retx'): '768bd927133d2f62',
    ('singhal', 3, 'crash-last@20', 'bare'): 'ae8cb8c6c89c3cf0',
    ('singhal', 3, 'crash-last@20', 'retx'): 'ed932d75bd2cf07a',
    ('singhal', 3, 'crash-last@20-recover@200', 'bare'): 'a9ccf75ff2b0ef23',
    ('singhal', 3, 'crash-last@20-recover@200', 'retx'): '933625f39ca7c02e',
    ('singhal', 7, 'partition-30-60', 'bare'): '143cd1cb150480e1',
    ('singhal', 7, 'partition-30-60', 'retx'): '85f328c0473157d7',
    ('singhal', 7, 'crash-last@20', 'bare'): '6a512379380384bd',
    ('singhal', 7, 'crash-last@20', 'retx'): '9bd4bb6117c9d124',
    ('singhal', 7, 'crash-last@20-recover@200', 'bare'): '548a4fee469b5949',
    ('singhal', 7, 'crash-last@20-recover@200', 'retx'): '0673698b843d2e38',
    ('suzuki_kasami', 3, 'partition-30-60', 'bare'): 'fd069c221af16470',
    ('suzuki_kasami', 3, 'partition-30-60', 'retx'): '9128458d81f121cc',
    ('suzuki_kasami', 3, 'crash-last@20', 'bare'): '556232d21554531a',
    ('suzuki_kasami', 3, 'crash-last@20', 'retx'): '391b9f80c345d178',
    ('suzuki_kasami', 3, 'crash-last@20-recover@200', 'bare'): 'ae42e1d651b9f61e',
    ('suzuki_kasami', 3, 'crash-last@20-recover@200', 'retx'): '2da8fedcd9800d93',
    ('suzuki_kasami', 7, 'partition-30-60', 'bare'): '50ff7e8fbebf5025',
    ('suzuki_kasami', 7, 'partition-30-60', 'retx'): '6323c6611ce3eba8',
    ('suzuki_kasami', 7, 'crash-last@20', 'bare'): 'd1994232282a2115',
    ('suzuki_kasami', 7, 'crash-last@20', 'retx'): '532a4556e8c6d3ef',
    ('suzuki_kasami', 7, 'crash-last@20-recover@200', 'bare'): '9adf945cc7876643',
    ('suzuki_kasami', 7, 'crash-last@20-recover@200', 'retx'): '452620a2124418b4',
    ('tree_quorum', 3, 'partition-30-60', 'bare'): 'f0619d15f3163d03',
    ('tree_quorum', 3, 'partition-30-60', 'retx'): '0c369728d014b43a',
    ('tree_quorum', 3, 'crash-last@20', 'bare'): '996ba0ede7cda2a6',
    ('tree_quorum', 3, 'crash-last@20', 'retx'): '195825913a45c87b',
    ('tree_quorum', 3, 'crash-last@20-recover@200', 'bare'): '8a62168db5a07fb6',
    ('tree_quorum', 3, 'crash-last@20-recover@200', 'retx'): 'fe56bd011920c925',
    ('tree_quorum', 7, 'partition-30-60', 'bare'): 'b1e92cd3d3b491f8',
    ('tree_quorum', 7, 'partition-30-60', 'retx'): 'fdf1b4bdaabc4ccb',
    ('tree_quorum', 7, 'crash-last@20', 'bare'): '413622f53f8267f7',
    ('tree_quorum', 7, 'crash-last@20', 'retx'): '17b43c2a78cb65be',
    ('tree_quorum', 7, 'crash-last@20-recover@200', 'bare'): 'c08b65f762d12fa4',
    ('tree_quorum', 7, 'crash-last@20-recover@200', 'retx'): '58b76023c752008c',
}


def test_the_outage_table_covers_every_cell():
    assert set(OUTAGE_DIGESTS) == {
        (algorithm, n, outage, retx)
        for algorithm in algorithm_names()
        for n in OUTAGE_N
        for outage in OUTAGES
        for retx in OUTAGE_RETX
    }


@pytest.mark.parametrize(
    "algorithm,n,outage,retx",
    sorted(OUTAGE_DIGESTS),
    ids=lambda value: str(value),
)
def test_outage_digest(algorithm, n, outage, retx):
    assert outage_digest(algorithm, n, outage, retx) == OUTAGE_DIGESTS[
        algorithm, n, outage, retx
    ]
