"""Whole-program rules (SIM011-SIM012).

They run once per lint run over a
:class:`repro.lint.project.ProjectContext` instead of per file, so they
see across module boundaries:

* **SIM011** — RngHub stream discipline.  Every ``hub.stream(...)`` /
  ``hub.fresh(...)`` / ``hub.fresh_batch(...)`` call site in the
  ``repro`` package must use a string-literal stream name declared in the
  ``STREAMS`` registry (``repro/sim/rng.py``) with a declared key arity
  (``fresh_batch``'s id vector counts as the last key part), so a typo'd
  name or a drifted key shape cannot silently fork the RNG universe.
* **SIM012** *(warning)* — dead/drifted exports.  An ``__all__`` entry
  that names a symbol the module does not define, or that no file of the
  run's corpus imports, marks a back-compat shim that has drifted to
  garbage.  The corpus is the ``repro`` package plus the paths linted, so
  a run over ``src/`` alone does not see the tests' imports.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Severity, rule
from repro.lint.project import ProjectContext, _attr_chain


# ---------------------------------------------------------------------------
# SIM011 — RngHub stream discipline


def _is_hub_ref(node: ast.AST) -> bool:
    """True for ``hub`` / ``self.hub`` / ``cell_hub`` receivers."""
    names = _attr_chain(node)
    if not names:
        return False
    return names[-1] == "hub" or names[-1].endswith("_hub")


def _arity_text(allowed: tuple[int, ...]) -> str:
    return " or ".join(str(a) for a in allowed)


@rule(
    "SIM011",
    Severity.ERROR,
    "hub.stream()/fresh()/fresh_batch() names must be string literals "
    "from the STREAMS registry with the declared key arity",
    repro_only=True,
    project=True,
)
def check_stream_discipline(project: ProjectContext) -> Iterator:
    streams = project.stream_registry()
    if streams is None:
        return  # no registry in this corpus; nothing to check against
    for name in sorted(project.modules):
        mod = project.modules[name]
        path = str(mod.ctx.path)
        for call in mod.ctx.walk((ast.Call,)):
            func = call.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in ("stream", "fresh", "fresh_batch")
                and _is_hub_ref(func.value)
            ):
                continue
            hint = (
                "declare the stream in repro.sim.rng.STREAMS so a typo "
                "cannot silently fork the RNG universe"
            )
            if any(isinstance(a, ast.Starred) for a in call.args) or call.keywords:
                yield (
                    path,
                    call,
                    f"hub.{func.attr}(...) key is not statically checkable "
                    f"(starred/keyword arguments); use explicit positional "
                    f"key parts starting with a literal stream name; {hint}",
                )
                continue
            if not call.args:
                yield (
                    path,
                    call,
                    f"hub.{func.attr}() with an empty key; every stream "
                    f"needs a literal name from STREAMS; {hint}",
                )
                continue
            first = call.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                yield (
                    path,
                    call,
                    f"hub.{func.attr}(...) stream name must be a string "
                    f"literal, not a computed value; {hint}",
                )
                continue
            stream = first.value
            allowed = streams.get(stream)
            if allowed is None:
                known = ", ".join(sorted(streams))
                yield (
                    path,
                    call,
                    f"unknown stream name {stream!r} (registered: {known}); "
                    f"{hint}",
                )
            elif len(call.args) not in allowed:
                yield (
                    path,
                    call,
                    f"stream {stream!r} key has {len(call.args)} part(s) but "
                    f"STREAMS declares {_arity_text(allowed)}; inconsistent "
                    "key arity silently forks the stream tree — match the "
                    "declared shape or declare the new one",
                )


# ---------------------------------------------------------------------------
# SIM012 — dead/drifted exports


def _export_uses(project: ProjectContext) -> set[tuple[str, str]]:
    """Every ``(module, symbol)`` imported or attribute-accessed anywhere.

    Scans the *whole* corpus — repro modules plus whatever tests,
    benchmarks and examples the run was given — for ``from m import s``,
    ``from m import *`` (credits all of ``m.__all__``) and ``alias.attr``
    chains on imported modules.
    """
    from repro.lint.project import _resolve_relative, module_name_for

    uses: set[tuple[str, str]] = set()
    for resolved in sorted(project.files, key=str):
        ctx = project.files[resolved]
        consumer = module_name_for(ctx.path)
        # Local alias -> corpus module, for attribute-chain uses.
        aliases: dict[str, str] = {}
        dotted_imports: set[str] = set()
        for node in ctx.walk((ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        if alias.name in project.modules:
                            aliases[alias.asname] = alias.name
                    else:
                        dotted_imports.add(alias.name)
                continue
            src = node.module or ""
            if node.level:  # relative import inside the corpus
                if consumer is None:
                    continue
                mod = project.modules.get(consumer)
                if mod is None:
                    continue
                src = _resolve_relative(mod, node.level, node.module)
            for alias in node.names:
                if alias.name == "*":
                    star_mod = project.modules.get(src)
                    if star_mod is not None:
                        for exported, _line in star_mod.dunder_all:
                            uses.add((src, exported))
                        if not star_mod.dunder_all:
                            for sym in star_mod.symbols:
                                uses.add((src, sym))
                    continue
                uses.add((src, alias.name))
                if f"{src}.{alias.name}" in project.modules:
                    aliases[alias.asname or alias.name] = f"{src}.{alias.name}"
        # Attribute chains: ``alias.sym`` / ``repro.core.sym``.
        for node in ctx.walk((ast.Attribute,)):
            names = _attr_chain(node)
            if names is None or len(names) < 2:
                continue
            for k in range(len(names) - 1, 0, -1):
                head = ".".join(names[:k])
                target = aliases.get(head) if k == 1 and names[0] in aliases else None
                if target is None and (
                    head in project.modules
                    and any(d == head or d.startswith(head + ".") for d in dotted_imports)
                ):
                    target = head
                if target is not None:
                    uses.add((target, names[k]))
                    break
    return uses


def _origin_chain(
    project: ProjectContext, module: str, symbol: str
) -> list[tuple[str, str]]:
    """``(module, symbol)`` pairs along a re-export chain, facade first.

    A package ``__init__`` typically re-exports via ``from .sub import
    X``; consumers are free to import the symbol at *any* level of that
    chain (the facade or the defining submodule), so a use at any link
    keeps the export alive.
    """
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    cur = (module, symbol)
    while cur not in seen:
        seen.add(cur)
        pairs.append(cur)
        mod = project.modules.get(cur[0])
        if mod is None:
            break
        origin = mod.from_imports.get(cur[1])
        if origin is None:
            break
        cur = origin
    return pairs


@rule(
    "SIM012",
    Severity.WARNING,
    "__all__ entries nobody imports (dead or drifted exports)",
    repro_only=True,
    project=True,
)
def check_dead_exports(project: ProjectContext) -> Iterator:
    uses = _export_uses(project)
    for name in sorted(project.modules):
        mod = project.modules[name]
        path = str(mod.ctx.path)
        # A module-level __getattr__ (PEP 562) can provide any attribute
        # dynamically, so "not statically defined" proves nothing there.
        dynamic = "__getattr__" in mod.symbols
        for symbol, line in mod.dunder_all:
            if symbol not in mod.symbols and not mod.star_imports and not dynamic:
                yield (
                    path,
                    line,
                    f"__all__ names {symbol!r} which {name} does not define "
                    "or re-export — the export has drifted; remove it or "
                    "restore the symbol",
                )
                continue
            if not any(p in uses for p in _origin_chain(project, name, symbol)):
                yield (
                    path,
                    line,
                    f"__all__ entry {symbol!r} of {name} is imported by no "
                    "file of this run's corpus — dead export (back-compat "
                    "shim drift?); drop it or add coverage that imports it",
                )
