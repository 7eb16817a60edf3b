"""One workload, measured.

``run_workload`` is what a single invocation of ``run.py --workload W``
does: set up, measure (untraced: the end-to-end metrics, from a few
worker processes run one after the other; traced: the per-layer
metrics, in this process), check outputs, print every metric by name
with its unit, and finish with the one-line JSON result the benchmark
contract asks for.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from repro.experiments.cache import CellCache
from repro.experiments.campaign import Campaign
from repro.metrics.records import RunResult
from repro.verify import CheckResult

import golden
import layers
import measure
import workloads
from measure import Sample, SliceRun, Tally
from tracing import Tracer

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent

Metrics = Dict[str, Tuple[float, str]]

#: worker processes per untraced run: ``--seconds`` is split evenly
#: between them, and ``setup_s`` is the best of their set-ups
WORKERS = {"full": 6, "toy": 1}


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def prepare(name: str, seed: int, size: str):
    """Everything before the first timed unit: generate the inputs,
    make scratch space, create each cache backend (and cell server)
    once, and run the untimed warm-up units.  Returns
    ``(workload, scratch)``; the caller drops ``scratch``."""
    workload = workloads.build(name, seed, size)
    scratch = measure.make_scratch()
    tally = Tally()
    if workload.shape == "campaign":
        warmup = Campaign("warm-up", [cell.spec for cell in workload.warmup])
        for backend_name in workload.backends:
            backend, close = measure.open_backend(backend_name, scratch)
            try:
                done = warmup.run(
                    max_workers=1, steal=True, cache=CellCache(backend=backend))
            finally:
                close()
            tally.record(done.complete, f"warm-up incomplete on {backend_name}")
    else:
        for unit in workload.warmup:
            measure.run_unit(unit, tally)
    if tally.failed:
        measure.drop_scratch(scratch)
        raise RuntimeError("warm-up failed:\n" + "\n".join(tally.notes))
    return workload, scratch


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def check_pins(outputs: Iterable[Tuple[str, object]], tally: Tally) -> int:
    """Hold each ``(unit id, output)`` to ``golden.json``; a mismatch
    is a failed operation.  Returns how many units have no pin."""
    pins = golden.Golden()
    unpinned = 0
    for unit_id, output in outputs:
        try:
            expected = pins.expected(unit_id)
        except golden.NoGoldenError:
            unpinned += 1
            continue
        tally.record(
            output == expected,
            f"{unit_id}: output {output!r} differs from golden {expected!r}",
        )
    return unpinned


# ----------------------------------------------------------------------
# the untraced run: worker processes, merged
# ----------------------------------------------------------------------
def worker(name: str, seed: int, seconds: float, size: str) -> int:
    """One worker of an untraced run (``run.py --worker``): set up,
    run the timed loop for ``seconds``, and print one JSON document —
    when set-up was done, each unit's (each backend's) best times, the
    outputs to hold to the goldens, the reference kernel's best time,
    the tally and the peak memory.  :func:`untraced` merges them."""
    workload, scratch = prepare(name, seed, size)
    ready, setup_cpu = time.monotonic(), time.process_time()
    elapsed, on_cpu, stolen = time.perf_counter(), time.process_time(), measure.steal_seconds()
    tally = Tally()
    clock = measure.CLOCKS[workload.clock]
    reference = measure.Reference()
    document = {"ready": ready, "setup_cpu": setup_cpu}
    try:
        if workload.shape == "campaign":
            runs = measure.run_campaign(
                workload, seconds, scratch, tally, clock, reference)
            measure.check_parity(workload, runs, tally)
            document["outputs"] = [
                (cell.id, measure.digest(result))
                for run in runs
                for cell, result in zip(workload.units, run.fresh)
                if result is not None
            ]
            document["runs"] = [
                (best.backend, best.fresh_seconds, best.resume_seconds, best.cell_seconds,
                 best.tail_seconds, best.done, best.steps, passes)
                for best, passes in measure.best_passes(runs)
            ]
        else:
            samples = measure.run_fixed(
                workload.units, seconds, tally, clock=clock, reference=reference)
            document["outputs"] = [(uid, runs[0].output) for uid, runs in samples.items()]
            document["samples"] = {
                uid: (min(s.seconds for s in runs), runs[0].steps, len(runs))
                for uid, runs in samples.items()
            }
    finally:
        measure.drop_scratch(scratch)
    document.update(
        reference=(reference.best, reference.samples),
        tally=(tally.attempted, tally.failed, tally.notes),
        rss=measure.peak_rss_mb(),
        loop=(
            time.perf_counter() - elapsed,
            time.process_time() - on_cpu,
            measure.steal_seconds() - stolen,
        ),
    )
    print(json.dumps(document))
    return 0


def untraced(
    name: str, seed: int, seconds: float, size: str, tally: Tally
) -> Tuple[Metrics, List[str]]:
    """The end-to-end metrics and an account of the samples behind
    them, from ``WORKERS`` fresh interpreters run one after the other,
    each with an equal share of ``seconds``.

    Several processes because a process's memory layout is drawn at
    random when it starts and moves its speed (README, "Noise
    discipline"): a unit's time is its best over every repeat in every
    worker, and so is the set-up time, each worker setting up once.
    """
    workload = workloads.build(name, seed, size)
    count = WORKERS[size]
    command = [
        sys.executable, str(SUITE / "run.py"), "--worker", "--workload", name,
        "--seed", str(seed), "--seconds", repr(seconds / count), "--size", size,
    ]
    setups, documents = [], []
    for _ in range(count):
        spawned = time.monotonic()
        done = subprocess.run(command, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"worker failed:\n{done.stdout}\n{done.stderr}")
        document = json.loads(done.stdout.strip().splitlines()[-1])
        documents.append(document)
        # the monotonic clock is system-wide on Linux, so the child's
        # reading is comparable with the parent's
        setups.append(
            document["setup_cpu"] if workload.clock == "cpu"
            else document["ready"] - spawned
        )

    best_kernel = min(d["reference"][0] for d in documents)
    speed = best_kernel / measure.Reference.SECONDS if workload.clock == "cpu" else 1.0
    for attempted, failed, notes in (d["tally"] for d in documents):
        tally.attempted += attempted
        tally.failed += failed
        tally.notes.extend(notes[: 10 - len(tally.notes)])

    if workload.shape == "campaign":
        runs = [SliceRun(*run[:7]) for d in documents for run in d["runs"]]
        metrics = measure.campaign_metrics(runs, speed)
        passes = [
            sum(run[7] for d in documents for run in d["runs"] if run[0] == backend)
            for backend in workload.backends
        ]
        account = (
            f"{len(workload.units)}-cell slice, best of "
            f"{'+'.join(map(str, passes))} passes on {'+'.join(workload.backends)}"
        )
    else:
        samples = {
            unit.id: [Sample(*d["samples"][unit.id][:2], None) for d in documents]
            for unit in workload.units
        }
        metrics = measure.fixed_metrics(samples, speed)
        repeats = sorted(
            sum(d["samples"][unit.id][2] for d in documents) for unit in workload.units
        )
        account = f"{len(samples)} units, best of {repeats[0]}..{repeats[-1]} repeats each"
    metrics["setup_s"] = (min(setups) / speed, "s")
    metrics["peak_rss_mb"] = (max(d["rss"] for d in documents), "MB")

    first = documents[0]["outputs"]
    for document in documents[1:]:
        tally.record(
            document["outputs"] == first,
            f"{name}: two workers disagree on the outputs of the same inputs",
        )
    unpinned = check_pins(first, tally)
    account += f" over {count} worker processes; the first worker's outputs held to the goldens"
    if unpinned:
        account += (
            f"; {unpinned} of {len(first)} units have no golden (seed beyond the "
            "pinned range): held to completion, repeat and parity checks only"
        )
    loop = [sum(d["loop"][k] for d in documents) for k in range(3)]
    notes = [
        account,
        f"setup_s: best of {count} workers' set-ups "
        f"(median {statistics.median(setups) / speed:.4f} s)",
        f"clock: {workload.clock} seconds; the timed loops took {loop[0]:.1f} s, "
        f"{loop[1]:.1f} s of them on a processor, and the hypervisor kept "
        f"{loop[2]:.2f} s from this machine meanwhile",
        f"machine speed: the reference kernel's best of "
        f"{sum(d['reference'][1] for d in documents)} samples is {best_kernel * 1e3:.3f} ms "
        f"against {measure.Reference.SECONDS * 1e3:.3f} ms; "
        + (f"times are divided by {speed:.4f}" if workload.clock == "cpu"
           else "wall-clock times are not scaled"),
    ]
    return metrics, notes


@dataclass
class Pass:
    """One pass over the traced-size work, with or without the tracer."""

    wall: float = 0.0
    samples: Dict[str, List[Sample]] = field(default_factory=dict)
    runs: List[SliceRun] = field(default_factory=list)
    caches: List[CellCache] = field(default_factory=list)

    @property
    def results(self) -> list:
        """Every RunResult of the pass (none for model checks)."""
        if self.runs:
            return [r for run in self.runs for r in run.fresh if r is not None]
        return [
            runs[0].result
            for runs in self.samples.values()
            if isinstance(runs[0].result, RunResult)
        ]

    @property
    def checks(self) -> list:
        return [
            runs[0].result
            for runs in self.samples.values()
            if isinstance(runs[0].result, CheckResult)
        ]


def one_pass(workload, scratch: Path, tally: Tally, tracer: Tracer = None) -> Pass:
    out = Pass()

    def mark(label: str) -> None:
        if tracer is not None:
            tracer.cell = label

    if workload.shape == "campaign":
        for name in workload.backends:
            runs, caches = measure.run_slices(
                workload, name, scratch, tally,
                on_pass=lambda k, name=name: mark(f"{name}/pass{k}"),
            )
            out.runs.extend(runs)
            out.caches.extend(caches)
        out.wall = sum(run.fresh_seconds + run.resume_seconds for run in out.runs)
    else:
        out.samples = measure.run_fixed(
            workload.traced, 0.0, tally, on_unit=lambda unit: mark(unit.id))
        out.wall = sum(runs[0].seconds for runs in out.samples.values())
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def workload_layers(workload, plain: Pass, traced: Pass, tracer: Tracer) -> Metrics:
    """The per-layer metrics this workload's traced pass yields: self
    time per layer from the spans, exact counters from the results,
    and the ratios between them.  Layers the workload never enters
    read 0."""
    out: Metrics = {}
    for layer, seconds in tracer.self_times().items():
        out[f"{layer}.self_s"] = (seconds, "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    out["trace.wall_s"] = (traced.wall, "s")
    out["trace.untraced_wall_s"] = (plain.wall, "s")
    out["trace.overhead_ratio"] = (_ratio(traced.wall, plain.wall), "ratio")

    results = traced.results

    def extra(key: str) -> int:
        return sum(r.extra.get(key, 0) for r in results)

    def kind(key: str) -> int:
        return sum(r.messages_by_kind.get(key, 0) for r in results)

    def mean(values) -> float:
        values = [v for v in values if v == v]  # a run with no sample reads NaN
        return statistics.fmean(values) if values else 0.0

    messages = sum(r.messages_total for r in results)
    out["net.msgs_total"] = (messages, "count")
    out["net.fault_drops"] = (extra("net_fault_drops"), "count")
    out["net.fault_dups"] = (extra("net_fault_dups"), "count")
    out["net.retx_retransmits"] = (extra("net_retx_retransmits"), "count")
    out["net.retx_giveups"] = (extra("net_retx_giveups"), "count")
    out["net.retx_waste_ratio"] = (
        _ratio(extra("net_retx_retransmits"), messages), "ratio")
    faulty = [
        _ratio(plain.samples[cell.id][0].seconds, plain.samples[cell.clean_twin][0].seconds)
        for cell in (workload.traced if workload.shape == "cells" else ())
        if cell.clean_twin in plain.samples
    ]
    out["net.fault_overhead_ratio"] = (mean(faulty), "ratio")

    merged, skipped = extra("exch_rows_merged"), extra("exch_rows_skipped")
    out["core.exchange.calls"] = (extra("exchanges"), "count")
    out["core.exchange.rows_merged"] = (merged, "count")
    out["core.exchange.rows_skipped"] = (skipped, "count")
    out["core.exchange.useful_row_ratio"] = (_ratio(merged, merged + skipped), "ratio")
    out["core.exchange.prunes_run"] = (extra("exch_prunes_run"), "count")
    out["core.exchange.prunes_deferred"] = (extra("exch_prunes_deferred"), "count")
    out["core.state.cow_clones"] = (extra("si_cow_clones"), "count")
    out["core.state.snapshots"] = (extra("si_snapshots"), "count")
    out["core.state.fronts_rebuilt"] = (extra("si_fronts_rebuilt"), "count")
    out["core.state.fronts_reconciled"] = (extra("si_fronts_reconciled"), "count")
    out["core.state.prunes_run"] = (extra("si_prunes_run"), "count")
    out["core.state.prunes_skipped"] = (extra("si_prunes_skipped"), "count")
    out["core.node.msgs_by_kind.rm"] = (kind("RM"), "count")
    out["core.node.msgs_by_kind.im"] = (kind("IM"), "count")
    out["core.node.msgs_by_kind.em"] = (kind("EM"), "count")
    # simulated time: these repeat exactly, and are what the paper plots
    out["metrics.nme"] = (mean(r.nme for r in results), "msgs/cs")
    out["metrics.sim_rt_mean"] = (mean(r.mean_response_time for r in results), "simtime")
    out["metrics.sim_sync_delay_mean"] = (
        mean(r.mean_sync_delay for r in results), "simtime")

    fresh_cells = sum(run.done for run in traced.runs)
    resumed = sum(len(run.resumed) for run in plain.runs)
    out["experiments.cache.hits"] = (sum(c.hits for c in traced.caches), "count")
    out["experiments.cache.misses"] = (sum(c.misses for c in traced.caches), "count")
    out["experiments.cache.writes"] = (sum(c.writes for c in traced.caches), "count")
    out["experiments.cache.cached_cells_per_s"] = (
        _ratio(resumed, sum(run.resume_seconds for run in plain.runs)), "1/s")
    cell_seconds = [s for run in plain.runs for s in run.cell_seconds]
    out["experiments.cache.cell_s_p95"] = (
        measure.percentile(cell_seconds, 95) if cell_seconds else 0.0, "s")
    requests = tracer.count("ServiceBackend._request")
    out["experiments.service.requests"] = (requests, "count")
    out["experiments.service.requests_per_cell"] = (_ratio(requests, fresh_cells), "ratio")
    # each ServiceBackend connects once; any further connect is it
    # re-opening the connection to retry a request
    reconnects = tracer.count("http.connect") - workload.backends.count("http")
    out["experiments.service.retries"] = (max(reconnects, 0), "count")

    checks = plain.checks
    states = sum(c.states for c in checks)
    transitions = sum(c.transitions for c in checks)
    pruned = sum(c.sleep_skipped for c in checks)
    out["verify.states"] = (states, "count")
    out["verify.transitions"] = (transitions, "count")
    out["verify.states_per_s"] = (_ratio(states, sum(c.elapsed for c in checks)), "1/s")
    out["verify.sleep_pruned_ratio"] = (_ratio(pruned, transitions + pruned), "ratio")
    return out


def traced_run(workload, scratch: Path, size: str, tally: Tally) -> Tuple[Metrics, str]:
    """The per-layer metrics: the traced-size work once without and
    once with the tracer, then the layer micro-benchmarks."""
    plain = one_pass(workload, scratch, tally)
    tracer = Tracer().install()
    try:
        traced = one_pass(workload, scratch, tally, tracer)
    finally:
        tracer.uninstall()
    metrics = workload_layers(workload, plain, traced, tracer)
    metrics.update(layers.measure_layers(scratch, quick=size == "toy"))
    trace_path = measure.OUT_DIR / f"trace-{workload.name}.jsonl"
    tracer.write_jsonl(trace_path)
    return metrics, f"{len(tracer.spans)} spans written to {trace_path}"


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def machine_block(load_start) -> List[str]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    load_end = os.getloadavg()
    lines = [
        f"machine: commit {commit}, python {platform.python_version()}, "
        f"{os.cpu_count()} cpus, load average {load_start[0]:.2f} at start "
        f"and {load_end[0]:.2f} at end",
    ]
    if max(load_start[0], load_end[0]) > 1.5:
        lines.append(
            "machine: WARNING load average above 1.5 (this run itself makes 1.0) — "
            "something else is running; timings from this run are not comparable"
        )
    return lines


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, size: str, declared: dict
) -> int:
    """Measure one workload; returns the process exit code (0 only
    when every output was correct)."""
    load_start = os.getloadavg()
    tally = Tally()
    if trace:
        workload, scratch = prepare(name, seed, size)
        try:
            metrics, account = traced_run(workload, scratch, size, tally)
        finally:
            measure.drop_scratch(scratch)
        notes = [account]
    else:
        metrics, notes = untraced(name, seed, seconds, size, tally)

    group = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in declared[group]}
    emitted = {metric: unit for metric, (_, unit) in metrics.items()}
    if emitted != expected:
        wrong = sorted(set(emitted.items()) ^ set(expected.items()))
        raise RuntimeError(f"metrics emitted differ from BENCHMARK.json {group}: {wrong}")

    print(f"workload {name}  seed {seed}  size {size}  {'traced' if trace else 'untraced'}")
    for line in machine_block(load_start) + notes:
        print(line)
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<52} {value:>16.6g} {unit}")
    print(f"attempted {tally.attempted}  failed {tally.failed}  "
          f"failed_share {tally.failed / tally.attempted:.4f}")
    for note in tally.notes:
        print(f"FAILED {note}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if tally.failed == 0 else 1
