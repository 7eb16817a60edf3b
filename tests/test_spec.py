"""The cell spec boundary: byte compatibility and input validation.

``CellSpec.cache_key()`` and the embedded cache document are derived
from the dataclass fields through ``repro.experiments.spec.AXES``.
The literals below were computed on the commit *before* that
derivation existed (hand-written canon tuple and document dict), so
they pin that existing caches keep loading: same keys, same bytes,
no ``RESULTS_EPOCH`` bump.
"""

from __future__ import annotations

from dataclasses import fields, replace
from pathlib import Path
from typing import Iterator

import pytest

from repro.engine import run_scenario
from repro.experiments.backends import DirectoryBackend
from repro.experiments.cache import CellCache
from repro.experiments.spec import CellSpec, UnrepresentableScenarioError
from repro.metrics.io import result_to_dict

DATA = Path(__file__).resolve().parent / "data"

#: (spec, cache_key() at PR 11) — every delay and cs_time kind, both
#: workloads, bare-number shorthands, algo_kwargs, faults and retx
PINNED_KEYS = [
    (
        CellSpec("rcv", 10, 0, ("burst", 1)),
        "2fcce70cf32a0724746ad692c7c6a59710191e782fc0ab32c12600e6849f1ec9",
    ),
    (
        CellSpec("maekawa", 9, 3, ("burst", 2), cs_time=7, delay=2.5),
        "d0f243418ebc86d21133030d9a5b5714340bd2fe37fc8b313994f01559ad759d",
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
        "56895c39dcf87f1b63ea451767aff05bce1824755044da70a6ce6808ce8c3d72",
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
        "44835be5196f4106a8407b9d5afc56e8351fd9fc599a0b88f37ebe8b94a85cb4",
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
        "f5a89c9e03de695655cf87deb971265906bb47902b2d920d9d73d1e8bd5c2ae9",
    ),
    (
        CellSpec("rcv", 5, 5, ("burst", 1), algo_kwargs=(("b", 2), ("a", 1))),
        "dc549cceb1e9c66b6ed31ec8b2d577198df5841303cd09bb0246593c384f4858",
    ),
    (
        CellSpec(
            "rcv",
            6,
            6,
            ("burst", 1),
            faults=(("reorder", 6.0), ("dup", 0.15), ("drop", 0.0)),
        ),
        "ecf821654e77a459348e07512fd5fad0622214177af27597ef0783e303a207e2",
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
        "f291e18ba35671ebdc935c2d67c2a8f5473d7bdf1a65af02ecae5820acb67509",
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
        "7482df1e8fa950ce6271dffa4d7c2f6ac5781c98a732e7a23373821f1cb9b05a",
    ),
]

#: the cell stored in ``data/cell_written_by_pr11.json`` — written by
#: ``CellCache(dir).put`` on PR 11, copied byte for byte
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
STORED_KEY = "f43b0475716d89dcc203282a213c0775c9cd0511f830211d70ef51d2dc3b057e"
STORED_TEXT = (DATA / "cell_written_by_pr11.json").read_text()


@pytest.mark.parametrize("spec, key", PINNED_KEYS, ids=lambda v: str(v)[:12])
def test_cache_keys_are_byte_compatible_with_pr11(spec, key):
    assert spec.cache_key() == key


def test_directory_cache_written_by_pr11_still_loads(tmp_path):
    path = DirectoryBackend(tmp_path).path_for(STORED_KEY)
    path.parent.mkdir(parents=True)
    path.write_text(STORED_TEXT)

    cache = CellCache(tmp_path)
    assert cache.path_for(STORED_SPEC) == path
    loaded = cache.get(STORED_SPEC)
    assert (cache.hits, cache.misses) == (1, 0)
    fresh = run_scenario(STORED_SPEC.build_scenario())
    assert result_to_dict(loaded) == result_to_dict(fresh)


def test_stored_document_is_reproduced_byte_for_byte(tmp_path):
    cache = CellCache(tmp_path)
    cache.put(STORED_SPEC, run_scenario(STORED_SPEC.build_scenario()))
    assert cache.path_for(STORED_SPEC).read_text() == STORED_TEXT


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
