"""Pluggable rule registry.

A rule is a function ``check(ctx) -> Iterable[Finding]`` registered
under a stable id with the :func:`rule` decorator::

    @rule("my-rule", "one-line summary shown by --list-rules")
    def check_my_rule(ctx: LintContext) -> Iterator[Finding]:
        ...

Rules are whole-tree passes, not per-file visitors: cross-file
invariants (cache-key completeness, no wall clock anywhere in the
deterministic core) are the point of this linter, and a rule that only
needs per-file scanning simply iterates ``ctx.scan_trees()``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, NamedTuple

from repro.lint.context import LintContext
from repro.lint.findings import Finding

__all__ = ["Rule", "rule", "all_rules"]

CheckFn = Callable[[LintContext], Iterable[Finding]]


class Rule(NamedTuple):
    id: str
    summary: str
    check: CheckFn


_RULES: Dict[str, Rule] = {}


def rule(rule_id: str, summary: str) -> Callable[[CheckFn], CheckFn]:
    def decorator(fn: CheckFn) -> CheckFn:
        if rule_id in _RULES:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        _RULES[rule_id] = Rule(id=rule_id, summary=summary, check=fn)
        return fn

    return decorator


def all_rules() -> Dict[str, Rule]:
    # Importing the rules package registers every built-in rule; done
    # lazily so custom embedders can register theirs first.
    import repro.lint.rules  # noqa: F401

    return dict(_RULES)
