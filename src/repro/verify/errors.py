"""Checker-infrastructure failures, distinct from protocol findings.

A :class:`VerifyError` means the *checker itself* cannot proceed —
an unmodelable feature (timers), a malformed replay schedule (an
unencodable state attribute is the canon's ``CanonError``, alias
``FingerprintError``).  It always propagates; protocol-level
exceptions (``ProtocolInvariantError``, ``ProtocolStateError``) are,
by contrast, *results*: the exploration captures them as violations.
"""

from __future__ import annotations

__all__ = ["VerifyError"]


class VerifyError(Exception):
    """The model checker hit a condition it cannot explore through."""
