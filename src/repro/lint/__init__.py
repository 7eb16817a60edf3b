"""``repro.lint`` — AST-based determinism & invariant linter.

The reproduction's guarantees (bit-for-bit replay, cache-key
soundness across all four backends) rest on conventions that no
runtime test can see being broken *by the next edit*: no wall-clock
or ad-hoc randomness in the deterministic core, every ``CellSpec``
field in every cache key.  This package
turns those conventions into machine-checked invariants.  (Invariants
that have a chokepoint at run time — stream names, counter names, the
model checker's canon tables, the cell service's endpoint table — are
checked there, not here.)

Run it::

    PYTHONPATH=src python -m repro.lint            # human-readable
    PYTHONPATH=src python -m repro.lint --json     # machine-readable
    PYTHONPATH=src python -m repro.lint --list-rules

Exit status is non-zero when any finding survives pragma
suppression; CI gates on it.  The rule catalogue, the pragma grammar,
and how to add a rule live in docs/static-analysis.md.
"""

from repro.lint.context import LintContext, default_root
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules, rule
from repro.lint.runner import LintReport, run_lint

__all__ = [
    "Finding",
    "LintContext",
    "LintReport",
    "Rule",
    "all_rules",
    "default_root",
    "rule",
    "run_lint",
]
