"""Span tracing at the layer boundaries, from outside the program.

:class:`Tracer` wraps the public calls through which one layer enters
another — methods are replaced on their class, functions imported by
name are rebound in the importing module's namespace — records one
span per call in memory, and restores everything on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` is edited.

A span is ``(point, start, end, parent, cell)``: ``point`` indexes
:attr:`Tracer.points` (layer, name), ``parent`` is the index of the
enclosing span (-1 for a root) and ``cell`` the id of the unit the
harness was running.  A layer's *self time* is its spans' duration
minus the part their child spans cover, so self times over all layers
sum to the traced wall time (less what ran outside any span).

Only the thread that installed the tracer records; the cell server's
handler threads call straight through, and their work shows up as
time inside the client's ``ServiceBackend._request`` span — which is
what a campaign worker waits for.
"""

from __future__ import annotations

import http.client
import importlib
import json
import threading
from time import perf_counter
from typing import Dict, Iterable, List, Tuple

__all__ = ["LAYERS", "Tracer"]

#: every layer a span can belong to (module names under ``repro``);
#: ``baselines`` includes the ``mutex`` base-class state machine
LAYERS = (
    "sim",
    "net",
    "baselines",
    "core.node",
    "core.exchange",
    "core.order",
    "core.state",
    "engine",
    "workload",
    "metrics",
    "experiments.parallel",
    "experiments.cache",
    "experiments.backends",
    "experiments.service",
    "verify",
)

#: (module, class or None, attributes, layer) — calls replaced where
#: they are defined
_DEFINED = (
    ("repro.engine.engine", "Engine", ("__init__", "start", "run"), "engine"),
    ("repro.sim.kernel", "Simulator", ("run",), "sim"),
    ("repro.net.network", "Network", ("send",), "net"),
    (
        "repro.core.state",
        "SystemInfo",
        # snapshot plus the O(N) sweeps Exchange and Order call into
        (
            "snapshot",
            "merge_done",
            "prune_done",
            "prune_ordered_from_rows",
            "remove_everywhere",
            "tally_votes",
            "empty_row_count",
        ),
        "core.state",
    ),
    ("repro.metrics.collector", "MetricsCollector", ("finalize",), "metrics"),
    (
        "repro.workload.driver",
        "NodeDriver",
        ("start", "on_granted", "on_released"),
        "workload",
    ),
    (
        "repro.experiments.parallel",
        "CellSpec",
        ("normalized", "cache_key", "build_scenario"),
        "experiments.parallel",
    ),
    (
        "repro.experiments.cache",
        "CellCache",
        ("get", "peek", "adopt", "put", "claim", "release", "quarantined"),
        "experiments.cache",
    ),
    ("repro.experiments.backends", "ServiceBackend", ("_request",), "experiments.service"),
    ("repro.verify.checker", None, ("check",), "verify"),
    ("repro.core.exchange", None, ("exchange",), "core.exchange"),
    ("repro.core.order", None, ("run_order",), "core.order"),
    ("repro.experiments.parallel", None, ("run_cells",), "experiments.parallel"),
    ("repro.metrics.io", None, ("result_to_dict", "result_from_dict"), "metrics"),
)

#: (importing module, defining module, name) — the same functions
#: where they were imported by name, rebound to the wrapper made for
#: their definition
_REBOUND = (
    ("repro.core.node", "repro.core.exchange", "exchange"),
    ("repro.core.node", "repro.core.order", "run_order"),
    ("repro.experiments.campaign", "repro.experiments.parallel", "run_cells"),
    ("repro.experiments.cache", "repro.metrics.io", "result_to_dict"),
    ("repro.experiments.cache", "repro.metrics.io", "result_from_dict"),
    ("repro.verify", "repro.verify.checker", "check"),
)

_INHERITED = object()

_BACKENDS = ("DirectoryBackend", "MemoryBackend", "SQLiteBackend", "ServiceBackend")
_BACKEND_METHODS = ("get", "put", "claim", "release", "quarantined")


def _node_classes() -> Iterable[type]:
    """Every algorithm node class that defines its own ``on_message``."""
    import repro.baselines  # noqa: F401 - registers the subclasses
    from repro.mutex.base import MutexNode

    stack = list(MutexNode.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "on_message" in vars(cls) and cls.__module__.startswith("repro."):
            yield cls


class Tracer:
    def __init__(self) -> None:
        self.points: List[Tuple[str, str]] = []
        self.spans: list = []
        #: id of the unit being run; the harness sets it
        self.cell = ""
        self._stack: List[int] = []
        self._undo: list = []
        self._thread = threading.get_ident()

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn):
        point = len(self.points)
        self.points.append((layer, name))
        spans, stack, thread = self.spans, self._stack, self._thread
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if get_ident() != thread:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (point, start, end, parent, self.cell)

        return traced

    def _replace(self, owner, attr: str, layer: str, name: str, fn=None):
        """Wrap ``owner.attr`` in place.  ``fn`` is given when the
        attribute is inherited: the wrapper then shadows the base
        class's function on ``owner`` and is deleted on uninstall."""
        original = vars(owner).get(attr, _INHERITED)
        wrapper = self._wrap(layer, name, original if fn is None else fn)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return wrapper

    def install(self) -> "Tracer":
        wrappers: Dict[Tuple[str, str], object] = {}
        for module_name, cls_name, attrs, layer in _DEFINED:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            for attr in attrs:
                name = f"{cls_name}.{attr}" if cls_name else attr
                wrappers[module_name, attr] = self._replace(owner, attr, layer, name)
        for importer, definer, attr in _REBOUND:
            module = importlib.import_module(importer)
            self._undo.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrappers[definer, attr])
        backends = importlib.import_module("repro.experiments.backends")
        for cls_name in _BACKENDS:
            for attr in _BACKEND_METHODS:
                self._replace(
                    getattr(backends, cls_name),
                    attr,
                    "experiments.backends",
                    f"{cls_name}.{attr}",
                )
        from repro.mutex.base import MutexNode

        for cls in _node_classes():
            layer = "core.node" if cls.__module__.startswith("repro.core") else "baselines"
            self._replace(cls, "on_message", layer, f"{cls.__name__}.on_message")
            # request_cs/release_cs live on the mutex base class but run
            # the subclass's _do_request/_do_release: shadow them per node
            # class so the time lands in that class's layer.
            for attr in ("request_cs", "release_cs"):
                self._replace(
                    cls, attr, layer, f"{cls.__name__}.{attr}", vars(MutexNode)[attr]
                )
        # A reconnect is how ServiceBackend retries; count them here.
        self._replace(
            http.client.HTTPConnection, "connect", "experiments.service", "http.connect"
        )
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def count(self, name: str) -> int:
        """How many spans the point called ``name`` recorded."""
        wanted = {i for i, (_, n) in enumerate(self.points) if n == name}
        return sum(1 for span in self.spans if span[0] in wanted)

    def self_times(self) -> Dict[str, float]:
        """Self time per layer, in seconds, over every recorded span."""
        spans = self.spans
        own = [end - start for _, start, end, _, _ in spans]
        for (_, start, end, parent, _) in spans:
            if parent >= 0:
                own[parent] -= end - start
        totals = {layer: 0.0 for layer in LAYERS}
        for (point, _, _, _, _), seconds in zip(spans, own):
            totals[self.points[point][0]] += seconds
        return totals

    def write_jsonl(self, path) -> None:
        """One JSON object per span: id, layer, name, start, end,
        parent (-1 for a root) and cell."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (point, start, end, parent, cell) in enumerate(self.spans):
                layer, name = self.points[point]
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "layer": layer,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "cell": cell,
                        }
                    )
                )
                out.write("\n")
