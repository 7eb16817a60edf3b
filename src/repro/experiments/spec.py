"""The cell: one picklable description of a simulation run.

The paper's evaluation is a grid of independent ``(algorithm, N,
workload, seed)`` cells, and :class:`CellSpec` *is* that cell.  Its
dataclass fields are the single source of truth for what a cell is:
:data:`AXES` holds one entry per field — how a value is normalised,
which :class:`~repro.workload.scenario.Scenario` arguments it builds,
and how it is written into a cache document — and the canonical form,
the cache key, the embedded cache document and the scenario are all
*derived* by walking ``dataclasses.fields(CellSpec)`` through that
table.  Adding a field means adding one ``AXES`` entry; nothing else
enumerates the fields (the ``cache-key`` lint rule checks, at run
time, that every field moves the key, the document and — bar ``seed``
— the template identity).

Pure data and codecs: no executor, no clock, no filesystem.  The
scheduler lives in :mod:`repro.experiments.parallel`.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import partial
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple, Union

from repro.metrics.io import FORMAT_VERSION
from repro.net.delay import (
    ConstantDelay,
    ExponentialDelay,
    JitteredDelay,
    UniformDelay,
)
from repro.net.faults import normalize_faults
from repro.net.retx import normalize_retx
from repro.workload.arrivals import BurstArrivals, PoissonArrivals
from repro.workload.scenario import (
    Scenario,
    constant_cs_time,
    exponential_cs_time,
    uniform_cs_time,
)

__all__ = [
    "AXES",
    "Axis",
    "CellSpec",
    "FIELD_NAMES",
    "RESULTS_EPOCH",
    "UnrepresentableScenarioError",
    "cell_grid",
    "scenario_bindings",
]


#: Simulation-behavior epoch, mixed into every cell cache key.  The
#: cache identifies a cell by its *spec*, not by the code that ran it;
#: a code change that alters simulation results (which the determinism
#: test suite makes loud) MUST bump this, or stale cells from the old
#: behavior would be served as if freshly computed.  Schema changes
#: are covered separately by :data:`repro.metrics.io.FORMAT_VERSION`.
RESULTS_EPOCH = 2


class UnrepresentableScenarioError(ValueError):
    """A cell names a component :class:`CellSpec` cannot encode.

    Raised by every axis normaliser so a campaign never silently
    substitutes a different delay model, arrival process, or cs-time
    distribution for the one requested — the failure mode that
    previously downgraded every stochastic delay model to
    ``ConstantDelay``.
    """


class Axis(NamedTuple):
    """The codec of one :class:`CellSpec` field."""

    #: ``(value, n_nodes) -> canonical value``, or
    #: :class:`UnrepresentableScenarioError`
    normalize: Callable
    #: ``canonical value -> Scenario keyword arguments``
    build: Callable
    #: ``canonical value -> JSON-able`` form in the cache document
    document: Callable = lambda value: value


# ----------------------------------------------------------------------
# (kind, *params) axes: delay, cs_time, workload
# ----------------------------------------------------------------------
class Kind(NamedTuple):
    #: one converter per parameter (its length is the arity); each
    #: raises ``ValueError`` for a value the kind cannot take
    params: Tuple[Callable, ...]
    #: ``(*params) -> component``
    build: Callable


def _count(value) -> int:
    count = int(value)
    if count != value or count < 1:
        raise ValueError(f"{value!r} is not a positive whole number")
    return count


def _positive(value) -> float:
    number = float(value)
    if not 0.0 < number < float("inf"):
        raise ValueError(f"{value!r} is not a positive finite number")
    return number


_DELAY_KINDS = {
    "constant": Kind((float,), ConstantDelay),
    "uniform": Kind((float, float), UniformDelay),
    "exponential": Kind((float, float), ExponentialDelay),
    # a per-pair (callable) base fails the float converter: unencodable
    "jittered": Kind((float, float), JitteredDelay),
}

_CS_KINDS = {
    "constant": Kind((float,), constant_cs_time),
    "uniform": Kind((float, float), uniform_cs_time),
    "exponential": Kind((float, float), exponential_cs_time),
}

# The one place a workload tuple becomes an arrival process and its
# deadlines.  Arrival processes carry per-run issue counters, so each
# call builds a fresh one — never share the result between runs.
_WORKLOAD_KINDS = {
    "burst": Kind(
        (_count,),
        lambda count: {
            "arrivals": BurstArrivals(requests_per_node=count),
            "issue_deadline": None,
            "drain_deadline": None,
        },
    ),
    "poisson": Kind(
        (_positive, _positive),
        lambda mean, horizon: {
            "arrivals": PoissonArrivals.from_mean_interarrival(mean),
            "issue_deadline": horizon,
            "drain_deadline": horizon * 3,
        },
    ),
}


def _normalize_kind(what: str, kinds: dict, value, n_nodes=None) -> Tuple:
    """Canonical ``(kind, *params)`` tuple; where the axis has a
    ``constant`` kind, a bare number means that."""
    if (
        "constant" in kinds
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    ):
        value = ("constant", value)
    try:
        kind, *params = value
    except (TypeError, ValueError):
        raise UnrepresentableScenarioError(
            f"{what} spec {value!r} is not a (kind, *params) tuple"
        ) from None
    if not isinstance(kind, str) or kind not in kinds:
        raise UnrepresentableScenarioError(
            f"unknown {what} spec kind {kind!r} "
            f"(expected one of {sorted(kinds)})"
        )
    converters = kinds[kind].params
    if len(params) != len(converters):
        raise UnrepresentableScenarioError(
            f"{what} spec {value!r}: expected {len(converters) + 1} elements"
        )
    try:
        return (kind, *[c(p) for c, p in zip(converters, params)])
    except (TypeError, ValueError, OverflowError) as exc:
        raise UnrepresentableScenarioError(
            f"{what} spec {value!r}: {exc}"
        ) from None


def _build_kind(kinds: dict, value):
    return kinds[value[0]].build(*value[1:])


def _kind_axis(what, kinds, target=None) -> Axis:
    build = partial(_build_kind, kinds)
    return Axis(
        normalize=partial(_normalize_kind, what, kinds),
        build=build if target is None else lambda v: {target: build(v)},
        document=list,
    )


# ----------------------------------------------------------------------
# the remaining axes
# ----------------------------------------------------------------------
def _normalize_algo_kwargs(value, n_nodes=None) -> Tuple:
    """Sorted ``((name, value), ...)``; a mapping means its items."""
    items = value
    if not isinstance(value, (tuple, list)):
        items = value.items() if isinstance(value, Mapping) else None
    if items is None or not all(
        isinstance(item, (tuple, list))
        and len(item) == 2
        and isinstance(item[0], str)
        for item in items
    ):
        raise UnrepresentableScenarioError(
            f"algo_kwargs {value!r} is neither a mapping nor a sequence "
            "of (name, value) pairs"
        )
    pairs = sorted(map(tuple, items), key=itemgetter(0))
    if any(a[0] == b[0] for a, b in zip(pairs, pairs[1:])):
        raise UnrepresentableScenarioError(
            f"algo_kwargs {value!r} names a keyword twice"
        )
    return tuple(pairs)


def _net_grammar(what: str, normalize) -> Callable:
    """A normaliser whose grammar lives with the network layer
    (:mod:`repro.net.faults`, :mod:`repro.net.retx`): map its
    ``ValueError`` — which names the bad field — onto the campaign
    layer's typed guard, so an unknown fault kind, like an unknown
    delay kind, can never silently run a different experiment."""

    def lifted(value, n_nodes=None):
        try:
            return normalize(value, n_nodes)
        except ValueError as exc:
            raise UnrepresentableScenarioError(str(exc)) from None
        except TypeError as exc:  # not even the right shape
            raise UnrepresentableScenarioError(
                f"{what} spec {value!r} is malformed: {exc}"
            ) from None

    return lifted


def _plain(name, normalize=lambda value, n_nodes=None: value, **codec) -> Axis:
    """A field that is a :class:`Scenario` field of the same name."""
    return Axis(normalize, lambda v: {name: v}, **codec)


#: field name -> codec; one entry per :class:`CellSpec` field
AXES: Dict[str, Axis] = {
    "algorithm": _plain("algorithm"),
    "n_nodes": _plain("n_nodes"),
    "seed": _plain("seed"),
    "workload": _kind_axis("workload", _WORKLOAD_KINDS),
    "cs_time": _kind_axis("cs_time", _CS_KINDS, "cs_time"),
    "delay": _kind_axis("delay", _DELAY_KINDS, "delay_model"),
    "algo_kwargs": Axis(
        _normalize_algo_kwargs, lambda v: {"algo_kwargs": dict(v)}, repr
    ),
    # With n_nodes, partition groups and crash targets are range-checked.
    "faults": _plain(
        "faults",
        _net_grammar("faults", lambda v, n: normalize_faults(v, n_nodes=n)),
        document=repr,
    ),
    "retx": _plain(
        "retx",
        _net_grammar("retx", lambda v, n: normalize_retx(v)),
        document=repr,
    ),
}


def scenario_bindings(spec: "CellSpec", names=None) -> dict:
    """:class:`Scenario` keyword arguments for the named fields (all
    of them by default) of a **normalized** spec."""
    bindings: dict = {}
    for name in FIELD_NAMES if names is None else names:
        bindings.update(AXES[name].build(getattr(spec, name)))
    return bindings


# ----------------------------------------------------------------------
# cell specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellSpec:
    """One independent simulation cell, fully picklable.

    ``workload`` is ``("burst", requests_per_node)`` or
    ``("poisson", mean_interarrival, horizon)``.  ``cs_time`` and
    ``delay`` accept either a bare number (constant — the historical
    form) or a spec tuple naming the distribution:
    ``("constant", v)`` / ``("uniform", lo, hi)`` /
    ``("exponential", mean, minimum)`` and, for delays only,
    ``("jittered", base, jitter)``.  ``algo_kwargs`` is the node
    factory's keyword arguments as ``(name, value)`` pairs (or a
    mapping); the values must be picklable and hashable (RCVConfig is
    a frozen dataclass — fine).

    ``faults`` is an adversarial-network spec per the grammar in
    :mod:`repro.net.faults` — a tuple of fault tuples such as
    ``(("drop", 0.02), ("reorder", 10.0))``; ``()`` is the clean
    fabric.  ``retx`` is the reliable-delivery spec ``("retx", rto,
    backoff, max_retries)`` per :func:`repro.net.retx.normalize_retx`
    (``()`` disables it).  Like every field, both participate in
    :meth:`cache_key`, so a faulty or retx cell can never alias its
    clean twin in any cache backend.
    """

    algorithm: str
    n_nodes: int
    seed: int
    workload: Tuple
    cs_time: Union[float, Tuple] = 10.0
    delay: Union[float, Tuple] = 5.0
    algo_kwargs: tuple = field(default=())
    faults: Tuple = ()
    retx: Tuple = ()

    # ------------------------------------------------------------------
    def normalized(self) -> "CellSpec":
        """Canonical form: every field through its axis normaliser
        (bare numbers become constant-spec tuples, workload params
        floats/ints, algo_kwargs sorted, no-op faults removed).  Two
        specs describing the same cell normalize identically, so they
        share one :meth:`cache_key`; a value no axis can represent
        raises :class:`UnrepresentableScenarioError`."""
        n_nodes = self.n_nodes
        return type(self)(
            *[
                AXES[name].normalize(getattr(self, name), n_nodes)
                for name in FIELD_NAMES
            ]
        )

    def cache_key(self) -> str:
        """Content address of this cell (sha256 over the normalized
        field values + result-format version + behavior epoch).

        Stable across processes and sessions: every field is a
        number, string, or tuple/frozen-dataclass thereof, whose
        reprs are deterministic (no ``PYTHONHASHSEED`` dependence).
        Bumping :data:`repro.metrics.io.FORMAT_VERSION` (archive
        schema) or :data:`RESULTS_EPOCH` (simulation behavior)
        invalidates every cached cell, by construction.
        """
        spec = self.normalized()
        canon = repr(
            (
                FORMAT_VERSION,
                RESULTS_EPOCH,
                *[getattr(spec, name) for name in FIELD_NAMES],
            )
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def document(self) -> dict:
        """The JSON-able normalized spec a cache document embeds, so a
        cache is self-describing and a key collision (or a hand-edited
        entry) is detected at load."""
        spec = self.normalized()
        return {
            name: AXES[name].document(getattr(spec, name))
            for name in FIELD_NAMES
        }

    # ------------------------------------------------------------------
    def build_scenario(self) -> Scenario:
        return Scenario(**scenario_bindings(self.normalized()))


#: the fields of a cell, in declaration order — the order of the
#: cache-key canon and of the embedded document
FIELD_NAMES: Tuple[str, ...] = tuple(f.name for f in fields(CellSpec))


def cell_grid(
    algorithms: Sequence[str],
    points: Mapping,
    seeds: Sequence[int],
    **fields,
) -> List[Tuple[str, object, CellSpec]]:
    """The evaluation's one shape: ``(algorithm, x, cell)`` for every
    algorithm, every x of ``points`` and every seed, nested in that
    order (algorithm-major, seed innermost).

    ``points`` maps each x to the :class:`CellSpec` fields that vary
    with it; ``fields`` are shared by every cell, and a callable value
    there is a function of x (a fault spec whose partition groups
    depend on N).  A name that is not a field is a ``TypeError``.
    """
    at = {
        x: {
            **{k: v(x) if callable(v) else v for k, v in fields.items()},
            **varying,
        }
        for x, varying in points.items()
    }
    return [
        (algorithm, x, CellSpec(algorithm=algorithm, seed=seed, **at_x))
        for algorithm in algorithms
        for x, at_x in at.items()
        for seed in seeds
    ]
