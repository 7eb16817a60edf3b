"""Layer micro-benchmarks: one public call of one layer, timed alone.

These are the per-layer numbers that do not depend on the workload —
kernel events/s, network sends/s on each delivery path, one Exchange /
snapshot / Order at N=50 and N=200, engine build, result codec, spec
codec, each cache backend's operations, the service round trip.  Every
traced run reports all of them next to the workload's own span times
and counters, so a change in an end-to-end metric can be set against
the layer that moved.  ``README.md`` maps each to the end-to-end metric
and workload it should move.

Each number is the median over ``repeats`` timed batches (5, or 3 for
the batches that cost tens of milliseconds; 1 at toy size), taken with
the garbage collector disabled.
"""

from __future__ import annotations

import gc
import statistics
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from repro.core.exchange import exchange
from repro.core.order import run_order
from repro.core.state import SystemInfo
from repro.core.tuples import ReqTuple
from repro.engine import CellTemplate, Engine, run_scenario
from repro.experiments.cache import CellCache
from repro.experiments.parallel import CellSpec, run_cells
from repro.metrics.io import result_from_dict, result_to_dict
from repro.net.message import Message
from repro.sim.kernel import Simulator

from measure import open_backend, percentile
from workloads import RETX

__all__ = ["measure_layers"]

Metrics = Dict[str, Tuple[float, str]]


def _timed(fn: Callable[[], object]) -> float:
    gc.collect()
    gc.disable()
    try:
        start = perf_counter()
        fn()
        return perf_counter() - start
    finally:
        gc.enable()


def _per_call(fn: Callable[[], object], calls: int, repeats: int) -> float:
    """Median seconds per call over ``repeats`` batches of ``calls``."""

    def batch() -> None:
        for _ in range(calls):
            fn()

    return statistics.median(_timed(batch) for _ in range(repeats)) / calls


# ----------------------------------------------------------------------
# sim, net
# ----------------------------------------------------------------------
def _sim(quick: bool) -> Metrics:
    events, repeats = (2_000, 1) if quick else (20_000, 5)

    def chain(fast: bool) -> float:
        sim = Simulator()
        schedule = sim.schedule_fast if fast else sim.schedule
        remaining = events

        def tick() -> None:
            nonlocal remaining
            if remaining:
                remaining -= 1
                schedule(1.0, tick)

        schedule(1.0, tick)
        return (events + 1) / _timed(sim.run)

    return {
        "sim.fast_events_per_s": (
            statistics.median(chain(True) for _ in range(repeats)), "1/s"),
        "sim.handle_events_per_s": (
            statistics.median(chain(False) for _ in range(repeats)), "1/s"),
    }


def _net(quick: bool) -> Metrics:
    sends, repeats = (200, 1) if quick else (2_000, 5)
    loss = (("drop", 0.05), ("dup", 0.05))
    paths = {
        # constant delay on a raw channel: the pair-delay fast path
        "fast": dict(delay=5.0),
        "general": dict(delay=("exponential", 5.0, 0.0)),
        "faulty": dict(delay=5.0, faults=loss),
        "retx": dict(delay=5.0, faults=loss, retx=RETX),
    }

    def rate(**net) -> float:
        # An engine that is never started: its network is wired for the
        # path, nothing is delivered, only Network.send is timed.
        spec = CellSpec("rcv", 4, 0, ("burst", 1), **net)
        network = Engine(spec.build_scenario()).network
        messages = [Message() for _ in range(sends)]

        def batch() -> None:
            for message in messages:
                network.send(0, 1, message)

        return sends / _timed(batch)

    return {
        f"net.send_{name}_per_s": (
            statistics.median(rate(**net) for _ in range(repeats)), "1/s")
        for name, net in paths.items()
    }


# ----------------------------------------------------------------------
# core
# ----------------------------------------------------------------------
def _busy_si(n: int, competitors: int = 10) -> SystemInfo:
    """A populated SI table (as ``bench_protocol._busy_si``): every row
    stamped, four pending tuples a row, ten competing requesters."""
    si = SystemInfo(n)
    for i in range(n):
        si.row_ts[i] = i
        si.rows[i].mnl = [ReqTuple((i + k) % competitors, 2) for k in range(4)]
    si.note_ts(max(si.row_ts))
    si.force_normalize()
    return si


def _core(quick: bool) -> Metrics:
    repeats = 1 if quick else 5
    out: Metrics = {}
    for n, calls in ((50, 200), (200, 40)):
        if quick:
            calls = 10
        si = _busy_si(n)
        incoming = _busy_si(n)
        incoming.row_ts[7] = n + 99
        incoming.note_ts(n + 99)
        snapshot = _per_call(si.snapshot, calls, repeats)
        # exchange and run_order mutate their SI, so each call works on
        # a fresh snapshot, whose cost is subtracted.
        merge = _per_call(
            lambda: exchange(si.snapshot(), incoming, on_inconsistency="count"),
            calls,
            repeats,
        )
        order = _per_call(lambda: run_order(si.snapshot(), None), calls, repeats)
        out[f"core.state.snapshot_us.n{n}"] = (snapshot * 1e6, "us")
        out[f"core.exchange.call_us.n{n}"] = (max(merge - snapshot, 0.0) * 1e6, "us")
        out[f"core.order.run_order_us.n{n}"] = (max(order - snapshot, 0.0) * 1e6, "us")
    return out


# ----------------------------------------------------------------------
# engine, metrics, experiments.parallel
# ----------------------------------------------------------------------
def _small_spec(seed: int = 0, n: int = 12) -> CellSpec:
    return CellSpec("rcv", n, seed, ("burst", 2))


def _engine(quick: bool) -> Metrics:
    repeats = 1 if quick else 5
    out: Metrics = {}
    for n, calls in ((12, 20), (200, 2)):
        spec = CellSpec("rcv", n, 0, ("burst", 1))

        def build() -> None:
            Engine(spec.build_scenario()).start()

        out[f"engine.build_ms.n{n}"] = (_per_call(build, calls, repeats) * 1e3, "ms")
    spec = _small_spec()
    template = CellTemplate(spec)
    calls, repeats = (2, 1) if quick else (5, 3)
    warm = _per_call(lambda: template.run(0), calls, repeats)
    fresh = _per_call(lambda: run_scenario(spec.build_scenario()), calls, repeats)
    out["engine.template_run_ratio"] = (warm / fresh, "ratio")
    return out


def _metrics(quick: bool) -> Metrics:
    calls, repeats = (20, 1) if quick else (200, 5)
    spec = _small_spec()
    engine = Engine(spec.build_scenario())
    result = engine.run()
    document = result_to_dict(result)

    def finalize() -> None:
        engine.collector.finalize(
            algorithm=spec.algorithm,
            n_nodes=spec.n_nodes,
            seed=spec.seed,
            horizon=engine.sim.now,
            network_stats=engine.network.stats,
            sync_delays=engine.safety.sync_delays,
        )

    return {
        "metrics.finalize_us": (_per_call(finalize, calls, repeats) * 1e6, "us"),
        "metrics.result_encode_us": (
            _per_call(lambda: result_to_dict(result), calls, repeats) * 1e6, "us"),
        "metrics.result_decode_us": (
            _per_call(lambda: result_from_dict(document), calls, repeats) * 1e6, "us"),
    }


def _slice(cells: int) -> List[CellSpec]:
    return [_small_spec(seed, n) for seed in range(cells // 2) for n in (8, 12)]


def _parallel(quick: bool) -> Metrics:
    calls, repeats = (20, 1) if quick else (200, 5)
    spec = _small_spec()
    out: Metrics = {
        "experiments.parallel.normalize_us": (
            _per_call(spec.normalized, calls, repeats) * 1e6, "us"),
        "experiments.parallel.cache_key_us": (
            _per_call(spec.cache_key, calls, repeats) * 1e6, "us"),
        "experiments.parallel.build_scenario_us": (
            _per_call(spec.build_scenario, calls, repeats) * 1e6, "us"),
    }
    specs = _slice(4 if quick else 8)
    overhead = statistics.median(
        _timed(lambda: run_cells(specs, max_workers=1))
        - _timed(lambda: [run_scenario(s.build_scenario()) for s in specs])
        for _ in range(1 if quick else 3)
    )
    out["experiments.parallel.run_cells_overhead_ms_per_cell"] = (
        overhead / len(specs) * 1e3, "ms")
    return out


# ----------------------------------------------------------------------
# experiments.backends, experiments.cache, experiments.service
# ----------------------------------------------------------------------
BACKENDS = ("memory", "dir", "sqlite", "http")


def _backend_ops(name: str, scratch: Path, keys: int) -> Dict[str, List[float]]:
    """Seconds of each single cache operation, ``keys`` samples an op."""
    backend, close = open_backend(name, scratch)
    cache = CellCache(backend=backend)
    result = run_scenario(_small_spec().build_scenario())
    present = [_small_spec(seed) for seed in range(keys)]
    absent = [_small_spec(seed) for seed in range(keys, 2 * keys)]
    for spec in present + absent:
        spec.cache_key()  # hashing is experiments.parallel's cost, not the backend's

    def claim_release(spec: CellSpec) -> None:
        cache.claim(spec, "bench", 60.0)
        cache.release(spec, "bench")

    ops = (
        ("put_us", lambda spec: cache.put(spec, result), present),
        ("get_hit_us", cache.get, present),
        ("adopt_miss_us", cache.adopt, absent),
        ("claim_release_us", claim_release, absent),
    )
    gc.collect()
    gc.disable()
    try:
        samples: Dict[str, List[float]] = {}
        for op, fn, specs in ops:
            samples[op] = []
            for spec in specs:
                start = perf_counter()
                fn(spec)
                samples[op].append(perf_counter() - start)
        return samples
    finally:
        gc.enable()
        close()


def _backends(quick: bool, scratch: Path) -> Metrics:
    out: Metrics = {}
    for name in BACKENDS:
        slow = name == "http"  # ~44 ms a round trip: keep the sample small
        keys = (1 if slow else 5) if quick else (4 if slow else 50)
        samples = _backend_ops(name, scratch, keys)
        for op, seconds in samples.items():
            out[f"experiments.backends.{name}.{op}"] = (
                statistics.median(seconds) * 1e6, "us")
        if slow:
            trips = [s for op, xs in samples.items() for s in xs if op != "claim_release_us"]
            trips += [s / 2 for s in samples["claim_release_us"]]
            out["experiments.service.roundtrip_ms_p50"] = (
                statistics.median(trips) * 1e3, "ms")
            out["experiments.service.roundtrip_ms_p90"] = (
                percentile(trips, 90) * 1e3, "ms")
    # a stolen slice over http costs seconds; campaign_served measures that
    specs = _slice(4 if quick else 8)
    overheads: Dict[str, List[float]] = {name: [] for name in BACKENDS[:3]}
    for _ in range(1 if quick else 3):
        plain = _timed(lambda: run_cells(specs, max_workers=1))
        for name in overheads:
            backend, close = open_backend(name, scratch)
            try:
                cache = CellCache(backend=backend)
                stolen = _timed(
                    lambda: run_cells(specs, max_workers=1, cache=cache, steal=True))
            finally:
                close()
            overheads[name].append(stolen - plain)
    for name, seconds in overheads.items():
        out[f"experiments.cache.steal_overhead_ms_per_cell.{name}"] = (
            statistics.median(seconds) / len(specs) * 1e3, "ms")
    return out


def measure_layers(scratch: Path, quick: bool = False) -> Metrics:
    """Every layer micro-benchmark, as ``{name: (value, unit)}``."""
    out: Metrics = {}
    for part in (_sim, _net, _core, _engine, _metrics, _parallel):
        out.update(part(quick))
    out.update(_backends(quick, scratch))
    return out
