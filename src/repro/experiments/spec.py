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
enumerates the fields (``tests/test_spec.py`` checks, field by field,
that each moves the key and the document).  The axes the
command line can set also carry their :class:`TextForm` — the
``kind:p1:p2`` grammar of ``--delay-spec``, ``--cs-spec``,
``--fault-spec`` and ``--retx`` — so flag parsing, ``--help`` and the
campaign description read one table.

Pure data and codecs: no executor, no clock, no filesystem.  The
scheduler lives in :mod:`repro.experiments.parallel`.
"""

from __future__ import annotations

import hashlib
import math
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
    "TextForm",
    "UnrepresentableScenarioError",
    "cell_grid",
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


class TextForm(NamedTuple):
    """How the command line spells one axis."""

    flag: str
    #: the ``--help`` grammar, e.g. ``constant:D | uniform:LO:HI``
    grammar: str
    #: ``text -> value`` for the axis normaliser; ``ValueError`` names
    #: the field of a text the grammar cannot read
    parse: Callable
    #: ``canonical value -> text``, with ``parse(render(v))``
    #: normalising back to ``v``
    render: Callable


class Axis(NamedTuple):
    """The codec of one :class:`CellSpec` field."""

    #: ``(value, n_nodes) -> canonical value``, or
    #: :class:`UnrepresentableScenarioError`
    normalize: Callable
    #: ``canonical value -> Scenario keyword arguments``
    build: Callable
    #: ``canonical value -> JSON-able`` form in the cache document
    document: Callable = lambda value: value
    #: set on the axes a campaign flag can set
    text: TextForm | None = None


# ----------------------------------------------------------------------
# (kind, *params) axes: delay, cs_time, workload
# ----------------------------------------------------------------------
class Kind(NamedTuple):
    #: one converter per parameter (its length is the arity); each
    #: raises ``ValueError`` for a value the kind cannot take
    params: Tuple[Callable, ...]
    #: ``(*params) -> component``; a range the component refuses
    #: (``ValueError``) is refused at normalisation
    build: Callable
    #: the parameters' names in the axis's text form, ``"LO:HI"``
    names: str = ""


def _count(value) -> int:
    count = int(value)
    if count != value or count < 1:
        raise ValueError(f"{value!r} is not a positive whole number")
    return count


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _positive(value) -> float:
    number = _finite(value)
    if number <= 0.0:
        raise ValueError(f"{value!r} is not a positive finite number")
    return number


_DELAY_KINDS = {
    "constant": Kind((_finite,), ConstantDelay, "D"),
    "uniform": Kind((_finite, _finite), UniformDelay, "LO:HI"),
    "exponential": Kind((_finite, _finite), ExponentialDelay, "MEAN:MIN"),
    # a per-pair (callable) base fails the float converter: unencodable
    "jittered": Kind((_finite, _finite), JitteredDelay, "BASE:JITTER"),
}

_CS_KINDS = {
    "constant": Kind((_finite,), constant_cs_time, "V"),
    "uniform": Kind((_finite, _finite), uniform_cs_time, "LO:HI"),
    "exponential": Kind((_finite, _finite), exponential_cs_time, "MEAN:MIN"),
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
        params = [c(p) for c, p in zip(converters, params)]
        kinds[kind].build(*params)  # the component's own range checks
    except (TypeError, ValueError, OverflowError) as exc:
        raise UnrepresentableScenarioError(
            f"{what} spec {value!r}: {exc}"
        ) from None
    return (kind, *params)


def _build_kind(kinds: dict, value):
    return kinds[value[0]].build(*value[1:])


# ----------------------------------------------------------------------
# text forms: ``kind:p1:p2`` with named, colon-separated numbers
# ----------------------------------------------------------------------
def _numbers(text: str, pieces: Sequence[str], names: Sequence[str]) -> List:
    numbers = []
    for name, piece in zip(names, pieces):
        try:
            numbers.append(float(piece))
        except ValueError:
            raise ValueError(
                f"{text!r}: {name} must be a number, got {piece!r}"
            ) from None
    return numbers


def _render(value: Sequence) -> str:
    """``kind:p1:p2``; a whole float is written as the integer."""
    return ":".join(str(part).removesuffix(".0") for part in value)


def _grammar(forms: Mapping) -> str:
    return " | ".join(f"{kind}:{names}" for kind, names in forms.items())


def _parse_kind_text(forms: Mapping, text: str) -> Tuple:
    """``kind:p1:p2`` as ``(kind, p1, p2)``, the numbers read under
    the names ``forms[kind]`` gives them."""
    kind, *pieces = text.split(":")
    if kind not in forms:
        raise UnrepresentableScenarioError(
            f"unknown kind {kind!r} (want {_grammar(forms)})"
        )
    names = forms[kind].split(":")
    if len(pieces) != len(names):
        raise ValueError(f"{text!r}: want {kind}:{forms[kind]}")
    return (kind, *_numbers(text, pieces, names))


def _kind_axis(what, kinds, target=None, flag=None) -> Axis:
    build = partial(_build_kind, kinds)
    forms = {name: kind.names for name, kind in kinds.items()}
    return Axis(
        normalize=partial(_normalize_kind, what, kinds),
        build=build if target is None else lambda v: {target: build(v)},
        document=list,
        text=flag
        and TextForm(
            flag, _grammar(forms), partial(_parse_kind_text, forms), _render
        ),
    )


_FAULT_FORMS = {
    "drop": "P",
    "dup": "P",
    "reorder": "WINDOW",
    "partition": "T_CUT:T_HEAL:K",
    "crash": "NODE:T",
    "recover": "NODE:T",
}


def _parse_faults(text: str) -> Tuple:
    """Space-separated fault items as a fault spec: a one-number item
    is a fault of its own, the others are entries of their kind's
    schedule (``partition``'s K — the first K nodes vs the rest — is
    resolved per N by the normaliser)."""
    scalars: List[Tuple] = []
    schedules: Dict[str, List[Tuple]] = {}
    for item in text.split():
        kind, *numbers = _parse_kind_text(_FAULT_FORMS, item)
        if len(numbers) == 1:
            scalars.append((kind, *numbers))
        else:
            schedules.setdefault(kind, []).append(tuple(numbers))
    return (*scalars, *((k, tuple(v)) for k, v in schedules.items()))


def _render_faults(faults: Tuple) -> str:
    items = []
    for kind, value in faults:
        for entry in value if isinstance(value, tuple) else [(value,)]:
            if kind == "partition":
                # The flag can only say "the first K nodes vs the
                # rest"; any other groups are shown as they are.
                t_cut, t_heal, a, b = entry
                if a + b == tuple(range(len(a + b))):
                    entry = (t_cut, t_heal, len(a))
            items.append(_render((kind, *entry)))
    return " ".join(items)


def _parse_retx(text: str) -> Tuple:
    pieces = text.split(":")
    if not 1 <= len(pieces) <= 3:
        raise ValueError(f"{text!r}: want RTO[:BACKOFF[:MAX]]")
    numbers = _numbers(text, pieces, ("RTO", "BACKOFF", "MAX"))
    return ("retx", *numbers, *(2.0, 10)[len(numbers) - 1 :])  # flag defaults


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
    "cs_time": _kind_axis("cs_time", _CS_KINDS, "cs_time", "--cs-spec"),
    "delay": _kind_axis("delay", _DELAY_KINDS, "delay_model", "--delay-spec"),
    "algo_kwargs": Axis(
        _normalize_algo_kwargs, lambda v: {"algo_kwargs": dict(v)}, repr
    ),
    # With n_nodes, partition groups and crash targets are range-checked.
    "faults": _plain(
        "faults",
        _net_grammar("faults", lambda v, n: normalize_faults(v, n_nodes=n)),
        document=repr,
        text=TextForm(
            "--fault-spec", _grammar(_FAULT_FORMS), _parse_faults, _render_faults
        ),
    ),
    "retx": _plain(
        "retx",
        _net_grammar("retx", lambda v, n: normalize_retx(v)),
        document=repr,
        text=TextForm(
            "--retx", "RTO[:BACKOFF[:MAX]]", _parse_retx, lambda v: _render(v[1:])
        ),
    ),
}


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
        spec = self.normalized()
        bindings: dict = {}
        for name in FIELD_NAMES:
            bindings.update(AXES[name].build(getattr(spec, name)))
        return Scenario(**bindings)


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
