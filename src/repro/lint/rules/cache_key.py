"""Rule ``cache-key`` — every ``CellSpec`` field moves every identity.

The PR-7 aliasing bug class: a ``CellSpec`` field that does not reach
``cache_key()`` makes two *different* cells share one cache entry — on
every backend, silently, with bit-for-bit plausible results.  The same
omission in the embedded cell document weakens the stored-spec
corruption guard.

Key and document are derived from ``dataclasses.fields(CellSpec)``
(:mod:`repro.experiments.spec`), so there is no hand-written field
list left to parse.  This rule is therefore a *runtime* guard, the one
rule here that imports the package it lints: it perturbs one field at
a time and checks that the key and the document move, and that the
document's key set is the field set.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Iterator

from repro.lint.context import LintContext
from repro.lint.findings import Finding
from repro.lint.registry import rule

RULE_ID = "cache-key"

SPEC = "src/repro/experiments/spec.py"


#: two valid cells that differ in every field
_BASE = ("rcv", 6, 0, ("burst", 1))
_OTHER = (
    "maekawa", 9, 1, ("poisson", 40.0, 300.0), ("uniform", 2.0, 6.0),
    ("exponential", 4.0, 0.5), (("quorum_system", "grid"),),
    (("dup", 0.1),), ("retx", 20.0, 2.0, 10),
)  # fmt: skip


def identity_violations(spec_cls=None) -> Iterator[str]:
    """One message per way ``spec_cls`` (default: the shipped
    ``CellSpec``) lets a field slip."""
    from repro.experiments.spec import CellSpec

    spec_cls = spec_cls or CellSpec
    base, other = spec_cls(*_BASE), spec_cls(*_OTHER)
    names = [f.name for f in fields(spec_cls)]
    if set(base.document()) != set(names):
        yield (
            f"embedded cell document keys {sorted(base.document())} are "
            f"not the CellSpec fields {sorted(names)}"
        )
    for name in names:
        if getattr(base, name) == getattr(other, name):
            yield (
                f"the cache-key guard's sample cells do not differ in "
                f"CellSpec field {name!r} — extend them"
            )
            continue
        changed = replace(base, **{name: getattr(other, name)})
        if changed.cache_key() == base.cache_key():
            yield (
                f"CellSpec field {name!r} does not reach cache_key — cells "
                "differing only in it would alias in every cache backend"
            )
        if changed.document() == base.document():
            yield (
                f"CellSpec field {name!r} does not reach the embedded cell "
                "document — the stored-spec corruption check cannot see it"
            )


@rule(RULE_ID, "every CellSpec field moves cache_key and the cell document")
def check(ctx: LintContext) -> Iterator[Finding]:
    try:
        if not ctx.exists(SPEC):
            raise FileNotFoundError("anchor file missing (CellSpec home)")
        messages = list(identity_violations())
    except Exception as exc:
        # A missing anchor, or a tree too broken to import, must fail
        # the gate with a finding — not pass silently, and not crash
        # the linter and hide the other rules.
        messages = [f"the runtime guard could not run: {exc!r}"]
    for message in messages:
        yield Finding(path=SPEC, line=0, col=0, rule=RULE_ID, message=message)
