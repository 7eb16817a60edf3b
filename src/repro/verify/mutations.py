"""Planted protocol bugs — known-bad mutants the checker must catch.

Each planted bug is an AST transform applied to the source of the
*imported* protocol module (``inspect.getsource`` — wherever the
package is installed), compiled in a scratch namespace, and grafted
onto a dynamic ``RCVNode`` subclass.  No file is ever modified, and
``isinstance(node, RCVNode)`` keeps holding, so ``check_system`` and
the rest of the verification stack treat the mutant as the genuine
protocol.

A transform must match **exactly one** site; zero matches means the
code evolved away from the bug's anchor (update the transform), more
than one means the transform is too loose.

These mutants are the checker's own regression suite: if the
exhaustive search ever stops producing a replayable counterexample
for them, the checker — not the protocol — has broken.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
import types
from typing import Callable, Dict, Optional

from repro.core.node import RCVNode
from repro.core.state import SystemInfo
from repro.verify.errors import VerifyError

__all__ = ["PLANTED_BUGS", "list_planted_bugs", "planted_node_class"]

NODE = "repro.core.node"
EXCHANGE = "repro.core.exchange"
STATE = "repro.core.state"
ORDER = "repro.core.order"


def _is_is_done_test(test: ast.AST) -> bool:
    return (
        isinstance(test, ast.Call)
        and isinstance(test.func, ast.Attribute)
        and test.func.attr == "is_done"
    )


def _flip_release_wait(tree: ast.AST) -> int:
    """``_handle_inform``: treat the predecessor's request as already
    finished — the home sends the successor its EM immediately instead
    of waiting to leave the CS (a textbook mutual-exclusion breach)."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_handle_inform":
            for sub in ast.walk(node):
                if isinstance(sub, ast.If) and _is_is_done_test(sub.test):
                    sub.test = ast.copy_location(
                        ast.Constant(True), sub.test
                    )
                    count += 1
    return count


def _disarm_enable_guard(tree: ast.AST) -> int:
    """``_on_em``: drop the defensive on-top check so the EM
    is the unconditional grant authorization the paper's lines 14–16
    describe.  Harmless on its own (the check never fires in correct
    runs); paired with :func:`_flip_release_wait` it models a
    paper-faithful implementation of the bug, letting the premature
    grant surface as a real double-CS instead of tripping our guard."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_on_em":
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.If)
                    and isinstance(sub.test, ast.UnaryOp)
                    and isinstance(sub.test.op, ast.Not)
                    and isinstance(sub.test.operand, ast.Call)
                    and isinstance(sub.test.operand.func, ast.Attribute)
                    and sub.test.operand.func.attr == "on_top"
                ):
                    sub.test = ast.copy_location(
                        ast.Constant(False), sub.test
                    )
                    count += 1
    return count


def _drop_renormalize(tree: ast.AST) -> int:
    """``exchange``: delete the incremental re-normalization sweep
    (``if adopted or new_tuples:``) — adopted rows keep tuples that
    were already ordered or finished, resurrecting dead votes (the
    ISSUE's example bug)."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "exchange":
            kept = []
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.If)
                    and isinstance(stmt.test, ast.BoolOp)
                    and isinstance(stmt.test.op, ast.Or)
                    and [
                        getattr(v, "id", None) for v in stmt.test.values
                    ]
                    == ["adopted", "new_tuples"]
                ):
                    count += 1
                    continue
                kept.append(stmt)
            node.body = kept
    return count


def _widen_is_done(tree: ast.AST) -> int:
    """``SystemInfo.is_done``: widen the completion watermark by one —
    every node believes a request finished one timestamp early.  All
    consistency paths (pruning, EM done-vectors, the on-top guard)
    share the same predicate, so nothing raises internally and the
    premature grants surface as a genuine double-CS."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "is_done":
            for sub in ast.walk(node):
                if isinstance(sub, ast.Compare) and isinstance(
                    sub.ops[0], ast.LtE
                ):
                    sub.comparators[0] = ast.BinOp(
                        left=sub.comparators[0],
                        op=ast.Add(),
                        right=ast.Constant(1),
                    )
                    count += 1
    return count


def _ignore_unknown_votes(tree: ast.AST) -> int:
    """``run_order``: tell the commit test there are zero unknown NSIT
    rows — the relative-majority threshold the paper's safety argument
    hinges on collapses, nodes commit leaders off partial tallies, and
    concurrent requests get ordered differently at different nodes.
    Each home then receives an EM consistent with its own (wrong)
    order, so nothing raises: the breach surfaces as a real double-CS.
    """
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "run_order":
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "_committable_leader"
                ):
                    sub.args[2] = ast.copy_location(
                        ast.Constant(0), sub.args[2]
                    )
                    count += 1
    return count


def _exec_mutated(
    module_name: str, *transforms: Callable[[ast.AST], int]
) -> dict:
    """Exec a module's source in a scratch namespace, with each
    transform applied (and validated to match exactly one site).
    With no transforms the source is exec'd verbatim."""
    try:
        source = inspect.getsource(importlib.import_module(module_name))
    except OSError as exc:
        raise VerifyError(
            f"cannot read the source of {module_name} to plant a bug "
            f"into: {exc}"
        ) from None
    tree = ast.parse(source, filename=f"<mutated {module_name}>")
    tag = "plain"
    for transform in transforms:
        count = transform(tree)
        if count != 1:
            raise VerifyError(
                f"planted-bug transform {transform.__name__} for "
                f"{module_name} matched {count} sites (expected exactly 1) "
                "— the protocol source moved; update "
                "repro/verify/mutations.py alongside it"
            )
        ast.fix_missing_locations(tree)
        tag = transform.__name__
    mod_name = f"repro_verify_mutant.{tag}.{module_name.replace('.', '_')}"
    # Registered so stdlib machinery that resolves classes through
    # sys.modules (e.g. the dataclass decorator) works during exec.
    module = types.ModuleType(mod_name)
    sys.modules[mod_name] = module
    exec(compile(tree, f"<mutated {module_name}>", "exec"), module.__dict__)
    return module.__dict__


def _build_skip_release_wait() -> type:
    ns = _exec_mutated(NODE, _flip_release_wait, _disarm_enable_guard)
    mutated = ns["RCVNode"]
    return type(
        "RCVNodeSkipReleaseWait",
        (RCVNode,),
        {
            "_handle_inform": mutated.__dict__["_handle_inform"],
            "_on_em": mutated.__dict__["_on_em"],
        },
    )


def _build_skip_exchange_renormalize() -> type:
    ns = _exec_mutated(EXCHANGE, _drop_renormalize)
    mutated_exchange = ns["exchange"]

    def _exchange(self, msg_si):
        mutated_exchange(
            self.si,
            msg_si,
            on_inconsistency=self.config.on_inconsistency,
            stats=self.exchange_stats,
        )

    return type(
        "RCVNodeSkipExchangeRenormalize",
        (RCVNode,),
        {"_exchange": _exchange},
    )


def _copy_si_slots(dst: SystemInfo, src: SystemInfo) -> None:
    for name in SystemInfo.__slots__:
        setattr(dst, name, getattr(src, name))


def _build_eager_done() -> type:
    ns = _exec_mutated(STATE, _widen_is_done)
    mutated_is_done = ns["SystemInfo"].__dict__["is_done"]

    def _snapshot(self):
        # The real snapshot() hardcodes SystemInfo; rewrap its result
        # so clones (verify worlds, outgoing messages) stay mutated.
        out = type(self).__new__(type(self))
        _copy_si_slots(out, SystemInfo.snapshot(self))
        return out

    mutated_si = type(
        "SystemInfoEagerDone",
        (SystemInfo,),
        {"is_done": mutated_is_done, "snapshot": _snapshot},
    )

    def _init(self, *args, **kwargs):
        RCVNode.__init__(self, *args, **kwargs)
        si = mutated_si.__new__(mutated_si)
        _copy_si_slots(si, self.si)
        self.si = si

    return type("RCVNodeEagerDone", (RCVNode,), {"__init__": _init})


def _build_blind_commit() -> type:
    order_ns = _exec_mutated(ORDER, _ignore_unknown_votes)
    # Re-exec node.py verbatim so its Order call sites resolve
    # ``run_order`` through a namespace we control, then point that
    # name at the mutated implementation.
    node_ns = _exec_mutated(NODE)
    node_ns["run_order"] = order_ns["run_order"]
    mutated = node_ns["RCVNode"]
    return type(
        "RCVNodeBlindCommit",
        (RCVNode,),
        {
            "_on_rm": mutated.__dict__["_on_rm"],
            "_reprocess_parked": mutated.__dict__["_reprocess_parked"],
        },
    )


PLANTED_BUGS: Dict[str, dict] = {
    "skip-release-wait": {
        "build": _build_skip_release_wait,
        "summary": (
            "the home forwards its successor's EM without waiting for "
            "its own release, and the receiver enters unconditionally "
            "as the paper's lines 14-16 read (mutual-exclusion breach)"
        ),
    },
    "skip-exchange-renormalize": {
        "build": _build_skip_exchange_renormalize,
        "summary": (
            "the Exchange merge skips the re-normalization sweep, "
            "resurrecting finished/ordered votes in adopted rows"
        ),
    },
    "eager-done": {
        "build": _build_eager_done,
        "summary": (
            "the done watermark is one timestamp too eager — live "
            "requests are pruned as already finished and the system "
            "wedges (stuck requesters)"
        ),
    },
    "blind-commit": {
        "build": _build_blind_commit,
        "summary": (
            "the Order rule ignores unknown NSIT rows — nodes commit "
            "conflicting orders off partial tallies, caught by the "
            "receiver's on-top guard (protocol-error)"
        ),
    },
}

_CLASS_CACHE: Dict[str, type] = {}


def planted_node_class(name: str) -> type:
    """The mutated RCVNode subclass for a planted bug (built once per
    process so replays see the identical class)."""
    cls = _CLASS_CACHE.get(name)
    if cls is None:
        spec = PLANTED_BUGS.get(name)
        if spec is None:
            raise VerifyError(
                f"unknown planted bug {name!r}; "
                f"choices: {sorted(PLANTED_BUGS)}"
            )
        cls = spec["build"]()
        _CLASS_CACHE[name] = cls
    return cls


def list_planted_bugs() -> Dict[str, str]:
    return {name: spec["summary"] for name, spec in PLANTED_BUGS.items()}
