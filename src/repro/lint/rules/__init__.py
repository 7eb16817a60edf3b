"""Built-in rules.  Importing this package registers every rule with
:mod:`repro.lint.registry`; add a module here (with an ``@rule(...)``
function) to ship a new rule — see docs/static-analysis.md."""

from repro.lint.rules import cache_key, determinism  # noqa: F401
