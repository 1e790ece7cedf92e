"""General Python hygiene rules with simulator consequences (SIM005).

SIM005 (mutable default arguments) is classic Python, but in this codebase
it is also a determinism bug: a default ``[]`` shared across trials leaks
state between supposedly independent runs.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Severity, rule

# ---------------------------------------------------------------------------
# SIM005 — mutable default arguments

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter"}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        return name in _MUTABLE_CALLS
    return False


@rule(
    "SIM005",
    Severity.ERROR,
    "no mutable default arguments",
)
def check_mutable_defaults(ctx: FileContext) -> Iterator:
    for node in ctx.walk((ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d is not None]
        for default in defaults:
            if _is_mutable_default(default):
                name = getattr(node, "name", "<lambda>")
                yield default, (
                    f"mutable default argument in {name}(); defaults are "
                    "created once and shared across calls — use None and "
                    "construct inside the body"
                )
