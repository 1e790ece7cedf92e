"""Policy-architecture rules (SIM007).

The layered scheme architecture (:mod:`repro.core.policy`) hinges on the
policy objects being **stateless**: one placement / dispatch / completion
/ reaction / write instance is shared by every scheme instance built from
the same composition, across trials and across schemes.  An instance
attribute written during an access would leak state between trials (and
between *schemes* sharing the singleton), breaking the determinism
contract the goldens pin down.  Per-access state belongs in the tracker
objects (:mod:`repro.accesscore.trackers`) or in local variables.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Severity, rule

#: Methods allowed to initialise instance state.  ``__post_init__``
#: covers dataclass-style construction (frozen dataclasses route their
#: writes through ``object.__setattr__`` there).
_CTOR_METHODS = {"__init__", "__post_init__", "__new__", "__set_name__"}


def _self_name(func: ast.AST) -> str | None:
    """The receiver argument's name, or ``None`` for staticmethods."""
    for deco in getattr(func, "decorator_list", []):
        if isinstance(deco, ast.Name) and deco.id == "staticmethod":
            return None
    args = func.args.posonlyargs + func.args.args
    return args[0].arg if args else None


def _attr_writes(func: ast.AST, receiver: str) -> Iterator[ast.AST]:
    """Attribute-assignment targets on ``receiver`` anywhere in ``func``."""
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if isinstance(node, ast.AnnAssign) and node.value is None:
                continue  # a bare annotation stores nothing
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, (ast.Store, ast.Del))
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == receiver
                    ):
                        yield sub
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == receiver
                ):
                    yield target


@rule(
    "SIM007",
    Severity.ERROR,
    "policy classes under repro/core/policy must be stateless",
    packages=("core/policy",),
)
def check_policy_stateless(ctx: FileContext) -> Iterator:
    """Flag instance-attribute writes outside constructors in policy classes.

    Scope: class bodies in files under ``repro/core/policy/`` (declared
    in the registry).  Module functions and constructor methods
    (``__init__``/``__post_init__``) are exempt; everything else a
    method writes must be a local or live in an explicitly stateful
    object passed in (tracker, scheme, run).
    """
    for cls in ctx.walk((ast.ClassDef,)):
        for func in cls.body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if func.name in _CTOR_METHODS:
                continue
            receiver = _self_name(func)
            if receiver is None:
                continue
            for write in _attr_writes(func, receiver):
                yield write, (
                    f"policy class {cls.name!r} writes instance attribute "
                    f"{receiver}.{write.attr} in {func.name}(); policy layers "
                    "are shared singletons and must stay stateless — keep "
                    "per-access state in a tracker or a local variable"
                )
