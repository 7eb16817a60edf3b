"""Content-addressed cache of simulation cells.

Every :class:`~repro.experiments.spec.CellSpec` hashes to a
stable key (:meth:`CellSpec.cache_key` — sha256 over the normalized
spec plus the result-format version), and :class:`CellCache` stores
one JSON document per cell in a pluggable
:class:`~repro.experiments.backends.CacheBackend` — the original
one-file-per-cell directory layout, an in-memory dict, a single
WAL-mode SQLite file, or an HTTP client for the shared-nothing cell
service (see :mod:`repro.experiments.backends` and
:mod:`repro.experiments.service`).  This
is what makes N=100–200 campaigns **resumable and distributable**:
re-running a campaign (or another worker pointed at the same backend)
loads finished cells and computes only the missing ones, bit-for-bit
identical to fresh runs (the parity tests pin this).

The façade owns spec hashing and document (de)serialization; the
backend owns durability and lease arbitration.  Each document embeds
the normalized spec (:meth:`CellSpec.document`) alongside the result,
so a cache is self-describing and a key collision (or a hand-edited
entry) is detected at load instead of silently returning the wrong
cell.

``hits`` / ``misses`` / ``writes`` count **this process's** work
only: :meth:`claim` counts a hit when it finds the cell committed and
nothing when not (a peer may yet compute it), so a ``--bench-json``
report from one of several workers describes that worker, not the
whole campaign.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Dict, Optional, Union

from repro.experiments.backends import (
    YOURS,
    BackendUnavailableError,
    CacheBackend,
    DirectoryBackend,
)
from repro.metrics.io import (
    FORMAT_VERSION,
    result_from_dict,
    result_to_dict,
)
from repro.metrics.records import RunResult

__all__ = ["CellCache"]


class CellCache:
    """Spec-hashing façade over a cell-storage backend.

    ``CellCache(root)`` keeps the historical behavior (a
    :class:`~repro.experiments.backends.DirectoryBackend` at
    ``root``); ``CellCache(backend=...)`` runs over any backend.
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        *,
        backend: Optional[CacheBackend] = None,
    ) -> None:
        if (root is None) == (backend is None):
            raise TypeError("pass exactly one of root= or backend=")
        self.backend: CacheBackend = (
            backend if backend is not None else DirectoryBackend(root)
        )
        #: cells served / absent / written, this process only
        #: (observability — the CLI's --bench-json report prints them)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # ------------------------------------------------------------------
    def _call(self, fn, *args):
        """Delegate to the backend, typing infrastructure failures.

        A corrupt *cell* keeps its precise errors (see
        :meth:`_decode`), but an unreachable *backend* — connection
        refused mid-campaign, a vanished mount, a locked-out database
        file — used to escape as a bare ``OSError`` from deep inside
        the façade.  It now surfaces as a
        :class:`~repro.experiments.backends.BackendUnavailableError`
        naming the backend and the remedy (campaign caches are
        resumable: restore the backend, re-run the same command).
        """
        try:
            return fn(*args)
        except BackendUnavailableError:
            raise  # already typed (ServiceBackend names its URL)
        except (OSError, sqlite3.Error) as exc:
            backend = type(self.backend).__name__
            where = (
                getattr(self.backend, "url", None)
                or getattr(self.backend, "root", None)
                or getattr(self.backend, "path", None)
            )
            location = f" at {where}" if where is not None else ""
            raise BackendUnavailableError(
                f"cell-cache backend {backend}{location} failed during "
                f"{getattr(fn, '__name__', fn)!s}: {exc!r}. Restore the "
                "backend (remount the filesystem / unlock the database / "
                "restart the cell server) and re-run the same command — "
                "the campaign resumes from the cells already committed."
            ) from exc

    # ------------------------------------------------------------------
    def path_for(self, spec) -> Path:
        """The on-disk path of a cell (directory backends only)."""
        path_for = getattr(self.backend, "path_for", None)
        if path_for is None:
            raise TypeError(
                f"{type(self.backend).__name__} does not store cells as "
                "individual files"
            )
        return path_for(spec.cache_key())

    def _describe(self, key: str) -> str:
        path_for = getattr(self.backend, "path_for", None)
        return str(path_for(key)) if path_for else f"key {key}"

    def _decode(self, text: str, spec, key: str) -> Optional[RunResult]:
        """Parse a stored document, or None for unparseable text.

        Unparseable text can only arise from external interference —
        atomic writes never leave partial documents — so it counts as
        a miss and the cell is recomputed.  A *parseable* document
        whose format version or embedded spec disagrees raises,
        because returning it would corrupt the campaign.
        """
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return None
        if doc.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"cached cell {self._describe(key)} has format_version "
                f"{doc.get('format_version')!r}; this build reads "
                f"{FORMAT_VERSION}. Point the campaign at a new cache "
                "(fresh --out directory / backend file) or delete the "
                "stale cache and re-run."
            )
        if doc.get("spec") != spec.document():
            raise ValueError(
                f"cached cell {self._describe(key)} was written for a "
                f"different spec ({doc.get('spec')!r}) — cache corruption "
                "or key collision; delete the entry (or start a new "
                "cache) and re-run."
            )
        return result_from_dict(doc["result"])

    # ------------------------------------------------------------------
    def get(self, spec) -> Optional[RunResult]:
        """The cached result for ``spec``, or None when absent.

        Counts a hit or a miss; ``run_cells``, which may never compute
        the cell it looks at, reads through :meth:`claim`.
        """
        key = spec.cache_key()
        text = self._call(self.backend.get, key)
        result = None if text is None else self._decode(text, spec, key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def peek(self, spec) -> Optional[RunResult]:
        """Like :meth:`get`, but leaves the hit/miss counters alone."""
        key = spec.cache_key()
        text = self._call(self.backend.get, key)
        return None if text is None else self._decode(text, spec, key)

    def adopt(self, spec) -> Optional[RunResult]:
        """A probe that counts a hit when found and nothing when not:
        an absent cell is not (yet) this worker's miss, as in
        :meth:`claim`."""
        result = self.peek(spec)
        if result is not None:
            self.hits += 1
        return result

    def put(self, spec, result: RunResult) -> str:
        """Atomically persist one cell result, ending its lease;
        returns its key."""
        key = spec.cache_key()
        doc = {
            "format_version": FORMAT_VERSION,
            "spec": spec.document(),
            "result": result_to_dict(result),
        }
        self._call(self.backend.put, key, json.dumps(doc))
        self.writes += 1
        return key

    # ------------------------------------------------------------------
    # leases (how run_cells claims a cell; see backends.CacheBackend)
    # ------------------------------------------------------------------
    def claim(self, spec, owner: str, ttl: float):
        """The backend's answer (``YOURS``, ``HELD``, ``QUARANTINED``),
        or the committed result, a hit.  An unparseable document is
        recomputed, as by :meth:`get`: ``YOURS``, with no lease."""
        key = spec.cache_key()
        answer = self._call(self.backend.claim, key, owner, ttl)
        if not isinstance(answer, str):
            return answer
        result = self._decode(answer, spec, key)
        if result is None:
            return YOURS
        self.hits += 1
        return result

    def release(self, spec, owner: str) -> None:
        """Drop ``owner``'s lease on ``spec``'s uncommitted cell."""
        self._call(self.backend.release, spec.cache_key(), owner)

    def renew(self, spec, owner: str, ttl: float) -> bool:
        """Extend ``owner``'s live lease on ``spec``'s cell (see backend)."""
        return self._call(self.backend.renew, spec.cache_key(), owner, ttl)

    # ------------------------------------------------------------------
    # failures / quarantine (campaign-level retry; see backends)
    # ------------------------------------------------------------------
    def record_failure(self, spec, owner: str, error: str) -> int:
        """Log a crash of ``spec``'s cell; returns the total count."""
        return self._call(
            self.backend.record_failure, spec.cache_key(), owner, error
        )

    def quarantine(self, spec) -> None:
        """Mark ``spec``'s cell poisoned: no backend will lease it again."""
        self._call(self.backend.quarantine, spec.cache_key())

    def quarantined(self) -> Dict[str, dict]:
        """All quarantined cells, keyed by cache key, with case files."""
        return self._call(self.backend.quarantined)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.backend)

    def __repr__(self) -> str:
        return (
            f"CellCache({self.backend!r}, "
            f"hits={self.hits} misses={self.misses})"
        )
