"""General Python hygiene rules with simulator consequences (SIM005-SIM006).

SIM005 (mutable default arguments) is classic Python, but in this codebase
it is also a determinism bug: a default ``[]`` shared across trials leaks
state between supposedly independent runs.  SIM006 guards the process
protocol — a generator process that catches :class:`repro.sim.core.Interrupt`
and silently swallows it breaks the interrupter's contract (the cause is
lost and the interrupted wait continues as if nothing happened).
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


# ---------------------------------------------------------------------------
# SIM006 — process generators must not swallow Interrupt


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """The nodes of ``func``'s own body, skipping nested function bodies."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _yields_in(func: ast.AST) -> bool:
    """True if ``func``'s own body (not nested defs) contains a yield."""
    return any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in _own_nodes(func))


def _catches_interrupt(handler: ast.ExceptHandler) -> bool:
    types = []
    if handler.type is None:
        return False  # bare except is pylint's business, not ours
    if isinstance(handler.type, ast.Tuple):
        types = list(handler.type.elts)
    else:
        types = [handler.type]
    for t in types:
        name = t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", None)
        if name == "Interrupt":
            return True
    return False


def _handler_handles(handler: ast.ExceptHandler) -> bool:
    """Re-raises, or references the bound exception (reads the cause)."""
    for node in handler.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise):
                return True
            if (
                handler.name is not None
                and isinstance(sub, ast.Name)
                and sub.id == handler.name
            ):
                return True
    return False


@rule(
    "SIM006",
    Severity.ERROR,
    "process generators must not swallow Interrupt without re-raising or "
    "handling the cause",
)
def check_interrupt_swallow(ctx: FileContext) -> Iterator:
    for func in ctx.walk((ast.FunctionDef, ast.AsyncFunctionDef)):
        if not _yields_in(func):
            continue
        for node in _own_nodes(func):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _catches_interrupt(node) and not _handler_handles(node):
                yield node, (
                    f"generator process {func.name}() catches Interrupt but "
                    "neither re-raises nor reads the cause; the interrupter's "
                    "signal is silently lost — bind the exception and handle "
                    "`exc.cause`, or re-raise"
                )
