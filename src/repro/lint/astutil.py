"""Small AST helpers shared by the rules."""

from __future__ import annotations

import ast
from typing import Dict, Optional

__all__ = ["import_aliases", "qualified_name"]


def import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Local name → fully qualified imported name, for every import.

    ``import time`` → ``{"time": "time"}``; ``import random as _r`` →
    ``{"_r": "random"}``; ``from time import monotonic as mono`` →
    ``{"mono": "time.monotonic"}``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for name in node.names:
                aliases[name.asname or name.name] = (
                    f"{node.module}.{name.name}"
                )
    return aliases


def qualified_name(
    node: ast.AST, aliases: Dict[str, str]
) -> Optional[str]:
    """Resolve a Name/Attribute chain to a dotted name via ``aliases``.

    ``_r.Random`` with ``{"_r": "random"}`` → ``"random.Random"``;
    returns None when the chain roots in something unresolvable
    (a call result, subscript, local variable…).
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))
