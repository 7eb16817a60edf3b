"""Structured event tracing for debugging protocol runs.

:class:`~repro.trace.recorder.TraceRecorder` attaches to an
:class:`~repro.engine.Engine` before its run — its network tap and its
grant/release hooks — and accumulates a time-ordered event log that can
be filtered, rendered, or written to JSON-lines.  Used by the
examples (``examples/trace_walkthrough.py``) and by regression tests
that pin exact message sequences.
"""

from repro.trace.recorder import TraceEvent, TraceRecorder

__all__ = ["TraceEvent", "TraceRecorder"]
