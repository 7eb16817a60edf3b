"""The cell spec boundary: identity, pinned bytes and input validation.

A cell's equality, hash, ``cache_key()`` and embedded cache document
are all read off one text, ``CellSpec.canon()`` — the typed encoding
(``repro.canon``) of the fields normalised through
``repro.experiments.spec.AXES``.  The literals below pin that text's
keys and document at ``RESULTS_EPOCH`` 3, the epoch that took the
canon in; the document written before (``RESULTS_EPOCH`` 2, a
``repr``-hashed key) stays, to pin what the bump promises an old
cache: its cells are misses, never errors, and are computed again.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import fields, replace
from pathlib import Path
from typing import Iterator

import pytest

from repro.engine import CellTemplate, run_scenario
from repro.experiments.backends import DirectoryBackend
from repro.experiments.cache import CellCache
from repro.experiments.parallel import run_cells
from repro.experiments.spec import CellSpec, UnrepresentableScenarioError
from repro.metrics.io import result_to_dict

DATA = Path(__file__).resolve().parent / "data"

#: (spec, cache_key() at RESULTS_EPOCH 3) — every delay and cs_time
#: kind, both workloads, bare-number shorthands, algo_kwargs, faults
#: and retx
PINNED_KEYS = [
    (
        CellSpec("rcv", 10, 0, ("burst", 1)),
        "3a9620c7cc0fc80d600dfb288300ff8f72d1d489a22326370215afe7ac48feb9",
    ),
    (
        CellSpec("maekawa", 9, 3, ("burst", 2), cs_time=7, delay=2.5),
        "0da37afb6c1e43a0d9f3661476fc43661530a2ba560de1c9a4f587d3a909ad38",
    ),
    (
        CellSpec(
            "rcv",
            8,
            1,
            ("poisson", 40.0, 300.0),
            delay=("uniform", 1.0, 9.0),
            cs_time=("exponential", 8.0, 0.5),
        ),
        "914c7a9ba428a986ddaae812ecea650df1f906f0f1060a502b31131e2025c5c4",
    ),
    (
        CellSpec(
            "ricart_agrawala",
            6,
            2,
            ("poisson", 25, 200),
            delay=("exponential", 4.0, 0.5),
            cs_time=("uniform", 2.0, 6.0),
        ),
        "dc640877e14003c13dbbaf0691eaf0fea31ee93e434c22a318def8b3d87d8b34",
    ),
    (
        CellSpec(
            "maekawa",
            9,
            4,
            ("burst", 1),
            delay=("jittered", 5.0, 1.5),
            algo_kwargs=(("quorum_system", "grid"),),
        ),
        "5639ce80845a147a9cd1f8d79fb1fb6949ce89d93ef16845273e15d1aba3b91d",
    ),
    (
        CellSpec("rcv", 5, 5, ("burst", 1), algo_kwargs=(("b", 2), ("a", 1))),
        "e0d343ccc7a7f5497d2d5c2ccffd4c21f0fb48759b14ed403cad0f0334b31513",
    ),
    (
        CellSpec(
            "rcv",
            6,
            6,
            ("burst", 1),
            faults=(("reorder", 6.0), ("dup", 0.15), ("drop", 0.0)),
        ),
        "0fb6ece6d246e1092a422e71bf919b6d55373aa77dbc96e105085db6bc6dd7b8",
    ),
    (
        CellSpec(
            "rcv",
            6,
            7,
            ("burst", 1),
            faults=(
                ("partition", ((30.0, 60.0, (0, 1, 2), (3, 4, 5)),)),
                ("crash", ((5, 20.0),)),
            ),
        ),
        "3303bc5977d127f88893d385d9571087584c91c9c8e55aa0e341d1540d440d22",
    ),
    (
        CellSpec(
            "rcv",
            6,
            8,
            ("burst", 1),
            faults=(("drop", 0.1),),
            retx=("retx", 20.0, 2.0, 10),
        ),
        "97901c1f229b80503f657d1a82c1c4274eafe943ee05e17527375879ba6a1a02",
    ),
]

#: the cell stored in ``data/cell_written_at_epoch_3.json`` — written
#: by ``CellCache(dir).put``, copied byte for byte — and, under its
#: epoch-2 key, in ``data/cell_written_by_pr11.json``
STORED_SPEC = CellSpec(
    "maekawa",
    4,
    2,
    ("burst", 1),
    delay=("uniform", 1.0, 9.0),
    cs_time=8,
    algo_kwargs=(("quorum_system", "grid"),),
    faults=(("reorder", 6.0), ("dup", 0.15)),
)
STORED_KEY = "1b2e9ec5007fa844a593f8e97742826daa64f4b3a00cd4d22025bfbb7f5ca3c5"
STORED_TEXT = (DATA / "cell_written_at_epoch_3.json").read_text()
#: the same cell's key and document at RESULTS_EPOCH 2
EPOCH_2_KEY = "f43b0475716d89dcc203282a213c0775c9cd0511f830211d70ef51d2dc3b057e"
EPOCH_2_TEXT = (DATA / "cell_written_by_pr11.json").read_text()


@pytest.mark.parametrize("spec, key", PINNED_KEYS, ids=lambda v: str(v)[:12])
def test_cache_keys_are_pinned_at_epoch_3(spec, key):
    assert spec.cache_key() == key


def test_directory_cache_written_by_pr11_still_loads(tmp_path):
    """An epoch-2 cell opens and is served raw, but ``CellCache``
    never hands it out: its key is not the cell's any more, so the
    cell is a miss — not an error — and is computed and written at
    its epoch-3 key, beside the old document."""
    backend = DirectoryBackend(tmp_path)
    path = backend.path_for(EPOCH_2_KEY)
    path.parent.mkdir(parents=True)
    path.write_text(EPOCH_2_TEXT)
    assert backend.get(EPOCH_2_KEY) == EPOCH_2_TEXT

    cache = CellCache(tmp_path)
    assert cache.path_for(STORED_SPEC) != path
    assert cache.get(STORED_SPEC) is None
    assert (cache.hits, cache.misses) == (0, 1)
    (result,) = run_cells([STORED_SPEC], max_workers=1, cache=cache)
    assert cache.writes == 1
    assert cache.path_for(STORED_SPEC).read_text() == STORED_TEXT
    assert path.read_text() == EPOCH_2_TEXT
    # same simulation, new spec document: the epoch moved the key only
    old, new = json.loads(EPOCH_2_TEXT), json.loads(STORED_TEXT)
    assert old["result"] == new["result"] == result_to_dict(result)
    assert old["spec"] != new["spec"] == STORED_SPEC.document()


def test_stored_document_is_reproduced_byte_for_byte(tmp_path):
    cache = CellCache(tmp_path)
    key = cache.put(STORED_SPEC, run_scenario(STORED_SPEC.build_scenario()))
    assert key == STORED_KEY
    assert cache.path_for(STORED_SPEC).read_text() == STORED_TEXT


# ----------------------------------------------------------------------
# one identity: equality, hash, key and document are one canon text
# ----------------------------------------------------------------------
def _identities(spec):
    return spec.canon(), spec.cache_key(), json.dumps(spec.document())


def test_two_spellings_of_one_cell_compare_equal():
    """``delay=5.0`` and ``("constant", 5)`` were one key but two
    unequal specs."""
    bare = CellSpec("rcv", 4, 0, ["burst", 1.0], cs_time=10, delay=5.0)
    spelled = CellSpec(
        "rcv", 4, 0, ("burst", 1), cs_time=("constant", 10.0), delay=("constant", 5)
    )
    assert bare == spelled and hash(bare) == hash(spelled)
    assert _identities(bare) == _identities(spelled)
    assert len({bare, spelled}) == 1


def test_a_mapping_algo_kwargs_is_hashable():
    """A spec with ``algo_kwargs={"a": 1}`` had a key, but ``hash()``
    raised ``TypeError``."""
    as_mapping = CellSpec("rcv", 3, 0, ("burst", 1), algo_kwargs={"a": 1})
    as_pairs = CellSpec("rcv", 3, 0, ("burst", 1), algo_kwargs=(("a", 1),))
    assert hash(as_mapping) == hash(as_pairs)
    assert {as_mapping: "cell"}[as_pairs] == "cell"


def test_cell_template_keys_tell_zero_from_false():
    """``0 == False`` in Python, but a node factory may well treat
    them differently: two templates whose ``algo_kwargs`` differ so
    used to share one key."""
    zero, false = (
        CellTemplate(CellSpec("rcv", 3, 0, ("burst", 1), algo_kwargs={"x": value}))
        for value in (0, False)
    )
    assert zero.key != false.key and hash(zero.key) != hash(false.key)
    assert all(a != b for a, b in zip(_identities(zero.key), _identities(false.key)))


# ----------------------------------------------------------------------
# algo_kwargs: a mapping used to be iterated as its *keys*
# ----------------------------------------------------------------------
def test_algo_kwargs_mapping_means_its_items():
    as_mapping = CellSpec(
        "maekawa", 4, 0, ("burst", 1), algo_kwargs={"quorum_system": "grid"}
    )
    as_pairs = CellSpec(
        "maekawa", 4, 0, ("burst", 1), algo_kwargs=(("quorum_system", "grid"),)
    )
    assert as_mapping.normalized() == as_pairs.normalized()
    assert as_mapping.cache_key() == as_pairs.cache_key()
    assert as_mapping.build_scenario().algo_kwargs == {"quorum_system": "grid"}
    # The two-character key that used to run {'a': 'b'} instead.
    two = CellSpec("rcv", 3, 0, ("burst", 1), algo_kwargs={"ab": 1})
    assert two.normalized().algo_kwargs == (("ab", 1),)


@pytest.mark.parametrize(
    "bad",
    [
        ("ab",),  # a name without a value
        "quorum_system",
        (("quorum_system", "grid", "extra"),),
        ((1, "grid"),),  # names are strings
        (("a", 1), ("a", 2)),  # one keyword, two values
        7,
    ],
    ids=repr,
)
def test_algo_kwargs_rejects_anything_but_name_value_pairs(bad):
    spec = CellSpec("rcv", 3, 0, ("burst", 1), algo_kwargs=bad)
    for use in (spec.normalized, spec.cache_key, spec.build_scenario):
        with pytest.raises(UnrepresentableScenarioError, match="algo_kwargs"):
            use()


# ----------------------------------------------------------------------
# workload: arity and range, like delay and cs_time
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "bad",
    [
        ("burst",),
        ("burst", 1, 2, 3),  # used to normalise to ("burst", 1)
        ("burst", 1.7),  # used to truncate to 1
        ("burst", -1),
        ("burst", 0),
        ("poisson", 100.0),
        ("poisson", 0.0, 300.0),
        ("poisson", 40.0, -1.0),
        ("poisson", float("inf"), 300.0),
        ("trace", 1),
        (),
        None,
        3,  # no "constant" workload: a bare number means nothing here
    ],
    ids=repr,
)
def test_workload_rejects_wrong_arity_and_range(bad):
    spec = CellSpec("rcv", 3, 0, bad)
    for use in (spec.normalized, spec.cache_key, spec.build_scenario):
        with pytest.raises(UnrepresentableScenarioError, match="workload"):
            use()
    assert issubclass(UnrepresentableScenarioError, ValueError)


def test_workload_integral_spellings_share_one_cell():
    a = CellSpec("rcv", 3, 0, ("burst", 2))
    b = CellSpec("rcv", 3, 0, ["burst", 2.0])
    assert a.normalized() == b.normalized()
    assert b.normalized().workload == ("burst", 2)
    assert type(b.normalized().workload[1]) is int


# ----------------------------------------------------------------------
# every numeric axis parameter is finite and in range at normalisation
# ----------------------------------------------------------------------
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "field, bad, names",
    [
        ("delay", NAN, "delay.*nan"),
        ("delay", INF, "delay.*inf"),
        # these two used to pass normalisation and die at build
        ("delay", -5.0, "delay.*-5"),
        ("delay", ("uniform", 8.0, 2.0), "delay.*8.0, 2.0"),
        ("delay", ("uniform", 2.0, INF), "delay.*inf"),
        ("delay", ("exponential", NAN, 1.0), "delay.*nan"),
        ("delay", ("jittered", 5.0, INF), "delay.*inf"),
        ("cs_time", NAN, "cs_time.*nan"),
        ("cs_time", INF, "cs_time.*inf"),
        ("cs_time", ("uniform", 12.0, 8.0), "cs_time.*12.0, 8.0"),
        ("cs_time", ("exponential", 0.0, 1.0), "cs_time.*0.0, 1.0"),
        ("faults", (("reorder", INF),), "reorder.*inf"),
        ("faults", (("reorder", NAN),), "reorder.*nan"),
        ("faults", (("crash", ((1, INF),)),), "crash.*inf"),
        ("faults", (("partition", ((1.0, INF, (0,), (1,)),)),), "partition.*inf"),
        ("faults", (("partition", ((NAN, 5.0, (0,), (1,)),)),), "partition.*nan"),
        ("retx", ("retx", NAN, 2.0, 10), "retx rto.*nan"),
        ("retx", ("retx", INF, 2.0, 10), "retx rto.*inf"),
        ("retx", ("retx", 5.0, NAN, 10), "retx backoff.*nan"),
        ("retx", ("retx", 5.0, INF, 10), "retx backoff.*inf"),
        ("retx", ("retx", 5.0, 2.0, INF), "retx.*inf"),
        # whole numbers are never truncated to: node 1.9 is not node 1
        ("faults", (("crash", ((1.9, 20.0),)),), "crash names node 1.9"),
        ("faults", (("partition", ((1, 2, (0.5,), (1,)),)),), "node 0.5"),
        ("retx", ("retx", 5.0, 2.0, 2.7), "max_retries.*2.7"),
    ],
    ids=repr,
)
def test_non_finite_and_out_of_range_parameters_are_refused(field, bad, names):
    """...with a message naming the axis (for faults, the fault kind)
    and showing the value."""
    spec = CellSpec("rcv", 3, 0, ("burst", 1), **{field: bad})
    for use in (spec.normalized, spec.cache_key, spec.build_scenario):
        with pytest.raises(UnrepresentableScenarioError, match=names):
            use()


def test_nan_delay_can_no_longer_poison_a_cache(tmp_path):
    """``delay=nan`` used to normalise, "run", commit — and every later
    resume raised "written for a different spec — cache corruption",
    because the embedded document's NaN never equals itself."""
    from repro.experiments.parallel import run_cells

    cache = CellCache(tmp_path / "cells")
    spec = CellSpec("rcv", 3, 0, ("burst", 1), delay=NAN)
    with pytest.raises(UnrepresentableScenarioError, match="delay"):
        run_cells([spec], max_workers=1, cache=cache)
    assert cache.writes == 0 and not any((tmp_path / "cells").glob("*.json"))


def test_partition_first_k_form_is_the_explicit_groups_cell():
    short = CellSpec(
        "rcv", 6, 0, ("burst", 1), faults=(("partition", ((10, 20, 2),)),)
    )
    explicit = CellSpec(
        "rcv", 6, 0, ("burst", 1),
        faults=(("partition", ((10.0, 20.0, (0, 1), (2, 3, 4, 5)),)),),
    )
    assert short.normalized() == explicit.normalized()
    assert short.cache_key() == explicit.cache_key()
    for k in (0, 6, 2.5, "2"):
        with pytest.raises(UnrepresentableScenarioError, match="K="):
            CellSpec(
                "rcv", 6, 0, ("burst", 1),
                faults=(("partition", ((10, 20, k),)),),
            ).normalized()


# ----------------------------------------------------------------------
# Every ``CellSpec`` field moves every identity.
#
# The PR-7 aliasing bug class: a ``CellSpec`` field that does not reach
# ``cache_key()`` makes two *different* cells share one cache entry — on
# every backend, silently, with bit-for-bit plausible results.  The same
# omission in the embedded cell document weakens the stored-spec
# corruption guard.  Key and document are derived from
# ``dataclasses.fields(CellSpec)``, so there is no hand-written field
# list to read: the guard perturbs one field at a time and checks that
# the key and the document move, and that the document's key set is the
# field set.
# ----------------------------------------------------------------------
#: two valid cells that differ in every field
_BASE = ("rcv", 6, 0, ("burst", 1))
_OTHER = (
    "maekawa", 9, 1, ("poisson", 40.0, 300.0), ("uniform", 2.0, 6.0),
    ("exponential", 4.0, 0.5), (("quorum_system", "grid"),),
    (("dup", 0.1),), ("retx", 20.0, 2.0, 10),
)  # fmt: skip


def identity_violations(spec_cls=CellSpec) -> Iterator[str]:
    """One message per way ``spec_cls`` lets a field slip."""
    base, other = spec_cls(*_BASE), spec_cls(*_OTHER)
    names = [f.name for f in fields(spec_cls)]
    if set(base.document()) != set(names):
        yield (
            f"embedded cell document keys {sorted(base.document())} are "
            f"not the CellSpec fields {sorted(names)}"
        )
    for name in names:
        if getattr(base, name) == getattr(other, name):
            yield (
                f"the cache-key guard's sample cells do not differ in "
                f"CellSpec field {name!r} — extend them"
            )
            continue
        changed = replace(base, **{name: getattr(other, name)})
        if changed.cache_key() == base.cache_key():
            yield (
                f"CellSpec field {name!r} does not reach cache_key — cells "
                "differing only in it would alias in every cache backend"
            )
        if changed.document() == base.document():
            yield (
                f"CellSpec field {name!r} does not reach the embedded cell "
                "document — the stored-spec corruption check cannot see it"
            )


def _forgets(method_name: str, field_name: str):
    """A CellSpec whose ``method_name`` ignores ``field_name``."""
    real = getattr(CellSpec, method_name)
    default = getattr(CellSpec(*_BASE), field_name)

    def forgetful(self):
        return real(replace(self, **{field_name: default}))

    return type("Forgetful", (CellSpec,), {method_name: forgetful})


def test_every_cellspec_field_moves_the_key_and_the_document():
    assert list(identity_violations()) == []


@pytest.mark.parametrize("field_name", [f.name for f in fields(CellSpec)])
def test_identity_guard_catches_any_field_dropped_from_the_key(field_name):
    messages = list(identity_violations(_forgets("cache_key", field_name)))
    assert any(
        f"{field_name!r} does not reach cache_key" in m for m in messages
    ), messages


def test_identity_guard_catches_a_field_dropped_from_the_document():
    class Renamed(CellSpec):
        def document(self):
            doc = CellSpec.document(self)
            doc["work_load"] = doc.pop("workload")
            return doc

    messages = " | ".join(identity_violations(Renamed))
    assert "'work_load'" in messages and "are not the CellSpec fields" in messages
    messages = " | ".join(identity_violations(_forgets("document", "workload")))
    assert "'workload' does not reach the embedded cell document" in messages


# ----------------------------------------------------------------------
# ``normalized()`` and ``cache_key()`` are derived once per instance;
# the memo must be invisible: same values as a fresh spec, no part in
# equality, hashing, repr or pickles
# ----------------------------------------------------------------------
_MEMO_SPECS = [spec for spec, _ in PINNED_KEYS] + [STORED_SPEC]


def _derived(spec):
    return spec.normalized(), spec.cache_key(), spec.document()


@pytest.mark.parametrize("spec", _MEMO_SPECS, ids=lambda v: str(v)[:12])
def test_a_derived_spec_agrees_with_a_fresh_equal_one(spec):
    used = replace(spec)
    first = _derived(used)
    assert _derived(used) == first  # served from the memo
    assert used.normalized() is first[0]
    fresh = replace(spec)
    assert _derived(fresh) == first


def test_replace_derives_anew():
    spec = CellSpec("rcv", 6, 0, ("burst", 1))
    key, normalized = spec.cache_key(), spec.normalized()
    moved = replace(spec, seed=1)
    assert moved.cache_key() != key
    assert moved.normalized() == replace(normalized, seed=1)
    assert replace(moved, seed=0).cache_key() == key


@pytest.mark.parametrize("spec", _MEMO_SPECS, ids=lambda v: str(v)[:12])
def test_a_pickled_spec_round_trips_with_an_equal_key(spec):
    used = replace(spec)
    key = used.cache_key()
    blob = pickle.dumps(used)
    assert blob == pickle.dumps(replace(spec))  # the memo stays home
    back = pickle.loads(blob)
    assert back == used and back.cache_key() == key
    assert back.document() == used.document()


def test_hash_eq_and_repr_ignore_the_memo():
    spec = CellSpec("rcv", 6, 0, ("burst", 1), delay=5)
    before = (hash(spec), repr(spec))
    spec.cache_key()
    assert (hash(spec), repr(spec)) == before
    fresh = CellSpec("rcv", 6, 0, ("burst", 1), delay=5)
    assert spec == fresh and hash(spec) == hash(fresh)
    assert {spec: 1}[fresh] == 1
