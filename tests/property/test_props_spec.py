"""Property tests for the cell-spec codecs (``repro.experiments.spec``).

Every :class:`CellSpec` field goes through one ``AXES`` entry, so the
properties are stated once and run per axis:

* normalisation is idempotent — ``normalize(normalize(x)) ==
  normalize(x)`` — for every spelling of a valid value;
* the embedded cache document survives JSON and identifies the spec —
  equal specs, equal keys and equal document texts are one relation;
* junk is refused with the typed error, never with whatever exception
  the first operation on it happens to raise;
* an axis a campaign flag can set round-trips through its text form —
  ``parse(render(x))`` normalises to ``normalize(x)`` — and every text
  the flag refuses is refused naming the flag and the field.

And for the one builder of grids of cells, ``cell_grid``: it is the
algorithm-major cross product, and the campaign sweeps built on it
produce the cells their hand-written predecessor did.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.experiments.campaign import Campaign, scale_campaign
from repro.experiments.spec import (
    AXES,
    FIELD_NAMES,
    CellSpec,
    UnrepresentableScenarioError,
    cell_grid,
)

COMMON = dict(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

N_NODES = 6

amounts = st.floats(0.0, 100.0) | st.integers(0, 100)
positives = st.floats(0.001, 100.0) | st.integers(1, 100)
probabilities = st.floats(0.0, 1.0)


def spellings(*parts):
    """``(kind, *params)`` as a tuple or a list."""
    return st.tuples(*parts) | st.tuples(*parts).map(list)


def ordered_pairs(kind):
    return st.tuples(amounts, amounts).flatmap(
        lambda pair: spellings(st.just(kind), st.just(min(pair)), st.just(max(pair)))
    )


def back_to_back(draws):
    """``(gap, length, K)`` draws as ``(t_cut, t_heal, K)`` windows —
    the first K nodes vs the rest — each cutting no earlier than the
    last one healed: two K-splits always both cut the pair (0, N-1),
    and windows that cut a common pair over overlapping time are
    refused."""
    windows, healed = [], 0
    for gap, length, k in draws:
        cut = healed + gap
        healed = cut + length
        windows.append((cut, healed, k))
    return tuple(windows)


workloads = (
    spellings(st.just("burst"), st.integers(1, 5))
    | spellings(st.just("burst"), st.integers(1, 5).map(float))
    | spellings(st.just("poisson"), positives, positives)
)
cs_times = (
    amounts
    | spellings(st.just("constant"), amounts)
    | ordered_pairs("uniform")
    | spellings(st.just("exponential"), positives, amounts)
)
delays = cs_times | spellings(st.just("jittered"), amounts, amounts)
kwarg_values = st.integers() | st.text(max_size=5) | st.booleans()
algo_kwargs = st.dictionaries(st.text(max_size=6), kwarg_values, max_size=4).flatmap(
    lambda d: st.sampled_from(
        [d, tuple(d.items()), [list(i) for i in reversed(d.items())]]
    )
)
faults = st.lists(
    st.one_of(
        st.tuples(st.just("drop"), probabilities),
        st.tuples(st.just("dup"), probabilities),
        st.tuples(st.just("reorder"), amounts),
        st.tuples(
            st.just("partition"),
            st.lists(
                st.tuples(amounts, positives, st.integers(1, N_NODES - 1)),
                max_size=2,
            ).map(back_to_back),
        ),
        st.tuples(
            st.just("crash"),
            st.lists(
                st.tuples(st.integers(0, N_NODES - 1), amounts),
                max_size=2,
                unique_by=lambda entry: entry[0],
            ).map(tuple),
        ),
    ),
    unique_by=lambda fault: fault[0],
    max_size=4,
).map(tuple)
retx = st.just(()) | st.tuples(
    st.just("retx"),
    positives,
    st.floats(1.0, 4.0) | st.integers(1, 4),
    st.integers(1, 20),
)

VALUES = {
    "algorithm": st.sampled_from(["rcv", "maekawa", "ricart_agrawala"]),
    "n_nodes": st.just(N_NODES),
    "seed": st.integers(0, 2**31),
    "workload": workloads,
    "cs_time": cs_times,
    "delay": delays,
    "algo_kwargs": algo_kwargs,
    "faults": faults,
    "retx": retx,
}
specs = st.builds(CellSpec, **VALUES)


def test_every_field_has_an_axis_and_a_strategy():
    assert set(VALUES) == set(AXES) == set(FIELD_NAMES)


@pytest.mark.parametrize("name", FIELD_NAMES)
@settings(**COMMON)
@given(data=st.data())
def test_normalisation_is_idempotent(name, data):
    normalize = AXES[name].normalize
    once = normalize(data.draw(VALUES[name]), N_NODES)
    assert normalize(once, N_NODES) == once
    assert repr(normalize(once, N_NODES)) == repr(once)  # 1 vs 1.0 matters


@settings(**COMMON)
@given(spec=specs)
def test_spec_normalisation_is_idempotent_and_keeps_the_key(spec):
    once = spec.normalized()
    assert once.normalized() == once
    assert once.cache_key() == spec.cache_key()


@settings(**COMMON)
@given(a=specs, b=specs)
@example(  # equal under ``==`` at RESULTS_EPOCH 2, yet two keys
    a=CellSpec("rcv", N_NODES, 0, ("burst", 1), algo_kwargs={"": 0}),
    b=CellSpec("rcv", N_NODES, 0, ("burst", 1), algo_kwargs={"": False}),
)
def test_document_survives_json_and_identifies_the_spec(a, b):
    """One identity: ``a == b`` exactly when the keys are equal,
    exactly when the document texts are; equal specs hash equal."""
    stored = json.loads(json.dumps(a.document()))
    assert stored == a.document() == a.normalized().document()
    assert list(stored) == list(FIELD_NAMES)
    same = a == b
    assert same == (a.cache_key() == b.cache_key())
    assert same == (json.dumps(a.document()) == json.dumps(b.document()))
    assert same == (a.normalized() == b.normalized())
    if same:
        assert hash(a) == hash(b)


TEXT_AXES = [name for name in FIELD_NAMES if AXES[name].text]


def test_the_text_settable_axes_are_the_campaign_flags():
    assert {AXES[name].text.flag for name in TEXT_AXES} == {
        "--cs-spec", "--delay-spec", "--fault-spec", "--retx",
    }
    # every fault kind the normaliser knows has a text form, in order
    from repro.experiments.spec import _FAULT_FORMS
    from repro.net.faults import FAULT_KINDS

    assert tuple(_FAULT_FORMS) == FAULT_KINDS


@pytest.mark.parametrize("name", TEXT_AXES)
@settings(**COMMON)
@given(data=st.data())
def test_text_form_round_trips(name, data):
    axis = AXES[name]
    canon = axis.normalize(data.draw(VALUES[name]), N_NODES)
    text = axis.text.render(canon)
    assert isinstance(text, str)
    if canon == ():  # the flag left out
        assert text == ""
    else:
        assert axis.normalize(axis.text.parse(text), N_NODES) == canon
        assert repr(axis.normalize(axis.text.parse(text), N_NODES)) == repr(canon)


@pytest.mark.parametrize(
    "name, text, field",
    [
        ("delay", "constant:fast", "D"),
        ("delay", "uniform:2", "uniform:LO:HI"),
        ("delay", "uniform:2:x", "HI"),
        ("delay", "matrix:3", "'matrix'"),
        ("delay", "constant:-1", "delay"),
        ("delay", "constant:nan", "delay"),
        ("cs_time", "exponential:4:y", "MIN"),
        ("cs_time", "jittered:5:2", "'jittered'"),
        ("cs_time", "uniform:9:3", "cs_time"),
        ("faults", "drop:p", "P"),
        ("faults", "drop:1.5", "drop"),
        ("faults", "reorder:inf", "reorder"),
        ("faults", "partition:1:2", "partition:T_CUT:T_HEAL:K"),
        ("faults", "partition:1:2:1.5", "K=1.5"),
        ("faults", "partition:1:2:6", "K=6"),
        ("faults", "crash:0.5:3", "node 0.5"),
        ("faults", "crash:9:3", "crash"),
        ("faults", "recover:1:3", "recover"),
        ("faults", "flood:1", "'flood'"),
        ("retx", "soon", "RTO"),
        ("retx", "5:x", "BACKOFF"),
        ("retx", "5:2:1.5", "max_retries"),
        ("retx", "5:2:3:4", "RTO[:BACKOFF[:MAX]]"),
        ("retx", "-5", "rto"),
        ("retx", "5:0.5", "backoff"),
        ("retx", "5:2:0", "max_retries"),
        ("retx", "nan", "rto"),
    ],
)
def test_every_text_rejection_names_flag_and_field(name, text, field):
    from repro import cli

    with pytest.raises(SystemExit) as refused:
        cli._axis_arg(name, text, (N_NODES,))
    message = str(refused.value)
    assert AXES[name].text.flag in message and field in message, message


junk = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=True)
    | st.text(max_size=4)
    | st.sampled_from(
        ["burst", "poisson", "constant", "uniform", "drop", "crash", "retx"]
    ),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=8,
)


@pytest.mark.parametrize(
    "name", [n for n in FIELD_NAMES if n not in ("algorithm", "n_nodes", "seed")]
)
@settings(**COMMON)
@given(value=junk)
def test_junk_is_refused_with_the_typed_error(name, value):
    try:
        once = AXES[name].normalize(value, N_NODES)
    except UnrepresentableScenarioError as exc:
        assert str(exc)
    else:  # it was a valid spelling after all
        assert AXES[name].normalize(once, N_NODES) == once


# ----------------------------------------------------------------------
# the grid builder
# ----------------------------------------------------------------------
algorithm_lists = st.lists(VALUES["algorithm"], unique=True, max_size=3)
n_lists = st.lists(st.integers(3, 12), unique=True, max_size=4)
seed_lists = st.lists(st.integers(0, 99), unique=True, max_size=3)


def halves(n):
    """A fault spec that depends on the node count."""
    half = n // 2
    return (("partition", ((1.0, 2.0, tuple(range(half)), tuple(range(half, n))),)),)


@settings(**COMMON)
@given(
    algorithms=algorithm_lists,
    ns=n_lists,
    seeds=seed_lists,
    workload=workloads,
    cs_time=cs_times,
)
def test_cell_grid_is_the_algorithm_major_cross_product(
    algorithms, ns, seeds, workload, cs_time
):
    points = {n: {"n_nodes": n, "workload": workload} for n in ns}
    grid = cell_grid(algorithms, points, seeds, cs_time=cs_time, faults=halves)
    assert len(grid) == len(algorithms) * len(ns) * len(seeds)
    assert [(algo, x, cell.seed) for algo, x, cell in grid] == [
        (algo, n, seed) for algo in algorithms for n in ns for seed in seeds
    ]
    for algo, x, cell in grid:
        # shared fields as given, per-point fields from the point, and
        # the callable resolved at this cell's own x
        assert cell == CellSpec(
            algo, x, cell.seed, workload, cs_time=cs_time, faults=halves(x)
        )


def pr12_add_sweep(
    algorithms,
    n_values,
    seeds,
    *,
    workload=("burst", 1),
    cs_time=10.0,
    delay=5.0,
    algo_kwargs=(),
    faults=(),
    retx=(),
):
    """``Campaign.add_sweep`` as PR 12 had it — three nested loops and
    every field listed — kept as the oracle for its replacement."""
    cells = []
    for algo in algorithms:
        for n in n_values:
            cell_faults = faults(n) if callable(faults) else faults
            for seed in seeds:
                cells.append(
                    CellSpec(
                        algorithm=algo,
                        n_nodes=n,
                        seed=seed,
                        workload=workload,
                        cs_time=cs_time,
                        delay=delay,
                        algo_kwargs=algo_kwargs,
                        faults=cell_faults,
                        retx=retx,
                    )
                )
    return cells


def keys(cells):
    return [cell.cache_key() for cell in cells]


@settings(**COMMON)
@given(
    algorithms=algorithm_lists,
    ns=n_lists,
    first_seed=st.integers(0, 50),
    seed_count=st.integers(0, 3),
    requests=st.integers(1, 3),
    cs_time=cs_times,
    delay=delays,
    retx=retx,
)
def test_campaign_sweeps_build_the_cells_pr12_built(
    algorithms, ns, first_seed, seed_count, requests, cs_time, delay, retx
):
    workload = ("burst", requests)
    # the shape benchmarks/suite/workloads.py uses
    seeds = range(first_seed, first_seed + seed_count)
    suite = scale_campaign(
        algorithms, n_values=ns, seeds=seeds, requests_per_node=requests
    )
    assert keys(suite.cells) == keys(
        pr12_add_sweep(algorithms, ns, seeds, workload=workload)
    )
    # the shape cli._cmd_campaign uses: every field, faults per N
    fields = dict(cs_time=cs_time, delay=delay, faults=halves, retx=retx)
    from_cli = scale_campaign(
        tuple(algorithms),
        n_values=tuple(ns),
        seeds=tuple(range(seed_count)),
        requests_per_node=requests,
        **fields,
    )
    expected = pr12_add_sweep(
        algorithms, ns, range(seed_count), workload=workload, **fields
    )
    assert keys(from_cli.cells) == keys(expected)
    direct = Campaign("x").add_sweep(
        algorithms, ns, range(seed_count), workload=workload, **fields
    )
    assert direct.cells == from_cli.cells == expected
