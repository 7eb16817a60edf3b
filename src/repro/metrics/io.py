"""Persistence of run results (JSON).

Experiment campaigns save their raw :class:`RunResult` records so
tables can be re-rendered, re-aggregated, or diffed against a later
code version without re-simulating.  The format is plain JSON — one
document per result set — versioned with ``FORMAT_VERSION`` so old
archives fail loudly rather than silently misparse.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.metrics.records import CsRecord, RunResult

__all__ = [
    "FORMAT_VERSION",
    "result_to_dict",
    "result_from_dict",
    "save_results",
    "load_results",
]

FORMAT_VERSION = 1


def result_to_dict(result: RunResult) -> dict:
    return {
        "algorithm": result.algorithm,
        "n_nodes": result.n_nodes,
        "seed": result.seed,
        "horizon": result.horizon,
        "messages_total": result.messages_total,
        "messages_by_kind": dict(result.messages_by_kind),
        "weighted_units": result.weighted_units,
        "sync_delays": list(result.sync_delays),
        "extra": dict(result.extra),
        "records": [
            {
                "node_id": r.node_id,
                "request_time": r.request_time,
                "grant_time": r.grant_time,
                "release_time": r.release_time,
            }
            for r in result.records
        ],
    }


def result_from_dict(data: dict) -> RunResult:
    return RunResult(
        algorithm=data["algorithm"],
        n_nodes=data["n_nodes"],
        seed=data["seed"],
        horizon=data["horizon"],
        messages_total=data["messages_total"],
        messages_by_kind=dict(data["messages_by_kind"]),
        weighted_units=data.get("weighted_units", 0),
        sync_delays=list(data.get("sync_delays", [])),
        extra=dict(data.get("extra", {})),
        records=[
            CsRecord(
                node_id=r["node_id"],
                request_time=r["request_time"],
                grant_time=r.get("grant_time"),
                release_time=r.get("release_time"),
            )
            for r in data.get("records", [])
        ],
    )


def save_results(
    path: Union[str, Path],
    results: Sequence[RunResult],
    *,
    meta: Optional[dict] = None,
) -> None:
    """Write results as one JSON document.

    ``meta`` (optional, JSON-serialisable) is stored alongside the
    results — campaign archives use it to embed the campaign name,
    description, and cell specs so an archive is self-describing.
    """
    doc = {
        "format_version": FORMAT_VERSION,
        "results": [result_to_dict(r) for r in results],
    }
    if meta is not None:
        doc["meta"] = meta
    Path(path).write_text(json.dumps(doc, indent=1))


def _checked_document(path: Union[str, Path]) -> dict:
    doc = json.loads(Path(path).read_text())
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported result-archive version {version!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    return doc


def load_results(path: Union[str, Path]) -> List[RunResult]:
    doc = _checked_document(path)
    return [result_from_dict(d) for d in doc["results"]]
