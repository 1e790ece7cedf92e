"""Whole-program view of the ``repro`` package: ``ProjectContext``.

The per-file rules (SIM001-SIM007) see one AST at a time.  The
whole-program rules (SIM011-SIM012) need the package as a whole: the
``STREAMS`` registry every ``hub.stream(...)`` call site is checked
against, and every importer of a module's ``__all__``.  This module
builds what they read:

* **corpus discovery** — linting any file under a ``repro`` package
  pulls the *whole* package into the analysis corpus, so a partial path
  argument still sees the registry and every importer;
* **module naming** — ``src/repro/core/access.py`` becomes
  ``repro.core.access`` (paths are mapped at the ``repro`` component, so
  fixture trees under ``tmp/src/repro/...`` analyse identically);
* a **module-qualified symbol table** — top-level functions, classes,
  assignments, ``from``-imports (re-export chains), star imports and
  ``__all__``.

Everything here is pure stdlib ``ast`` — no numpy, no imports of the
analysed code — so the CI lint job runs on a bare interpreter.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.lint.engine import FileContext


def module_name_for(path: Path) -> Optional[str]:
    """Dotted module name for a file under a ``repro`` package root.

    ``.../repro/core/access.py`` -> ``repro.core.access``;
    ``.../repro/core/__init__.py`` -> ``repro.core``; files outside a
    ``repro`` tree (tests, benchmarks, examples) return ``None`` — they
    participate in the corpus as import *consumers* only.
    """
    parts = path.parts
    if "repro" not in parts:
        return None
    idx = parts.index("repro")
    dotted = list(parts[idx:])
    last = dotted[-1]
    if not last.endswith(".py"):
        return None
    if last == "__init__.py":
        dotted = dotted[:-1]
    else:
        dotted[-1] = last[: -len(".py")]
    return ".".join(dotted)


def discover_corpus(linted: Iterable[Path]) -> Iterator[Path]:
    """Every ``.py`` file of each ``repro`` package touched by ``linted``.

    Whole-program rules must parse all of ``src/repro`` once even when
    only a sub-package is being linted, or the ``STREAMS`` registry and
    the importers of an export outside it would be invisible.
    """
    roots: set[Path] = set()
    for p in linted:
        resolved = Path(p).resolve()
        for parent in resolved.parents:
            if parent.name == "repro" and (parent / "__init__.py").is_file():
                roots.add(parent)
                break
    for root in sorted(roots):
        yield from sorted(q for q in root.rglob("*.py") if q.is_file())


@dataclass
class ModuleInfo:
    """Symbol-table view of one module in the corpus."""

    name: str
    ctx: FileContext
    symbols: dict[str, ast.AST] = field(default_factory=dict)
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    star_imports: list[str] = field(default_factory=list)
    dunder_all: list[tuple[str, int]] = field(default_factory=list)  #: (name, line)

    @property
    def is_package(self) -> bool:
        return self.ctx.path.name == "__init__.py"


def _resolve_relative(module: ModuleInfo, level: int, target: Optional[str]) -> str:
    """Absolute module named by a relative ``from``-import."""
    base = module.name if module.is_package else module.name.rpartition(".")[0]
    for _ in range(level - 1):
        base = base.rpartition(".")[0]
    return f"{base}.{target}" if target else base


def _collect_module(name: str, ctx: FileContext) -> ModuleInfo:
    info = ModuleInfo(name=name, ctx=ctx)
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            info.symbols[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                info.symbols[target.id] = node
                if target.id == "__all__" and isinstance(
                    getattr(node, "value", None), (ast.List, ast.Tuple)
                ):
                    for elt in node.value.elts:
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                            info.dunder_all.append((elt.value, elt.lineno))
    # Imports can appear anywhere (function-local lazy imports included).
    for node in ctx.walk((ast.ImportFrom,)):
        src = (
            _resolve_relative(info, node.level, node.module)
            if node.level
            else (node.module or "")
        )
        for alias in node.names:
            if alias.name == "*":
                info.star_imports.append(src)
            else:
                bound = alias.asname or alias.name
                info.from_imports[bound] = (src, alias.name)
                info.symbols.setdefault(bound, node)
    return info


def _attr_chain(node: ast.AST) -> Optional[list[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; None if any link is not a name."""
    names: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        names.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    names.append(cur.id)
    names.reverse()
    return names


class ProjectContext:
    """Symbol tables over the analysis corpus, for the project rules.

    Built once per lint run from already-parsed :class:`FileContext`
    objects.
    """

    def __init__(self, contexts: dict[Path, FileContext]) -> None:
        #: resolved path -> FileContext for every corpus file.
        self.files = dict(contexts)
        self.modules: dict[str, ModuleInfo] = {}
        for path, ctx in sorted(self.files.items(), key=lambda kv: str(kv[0])):
            name = module_name_for(ctx.path)
            if name is not None and name not in self.modules:
                self.modules[name] = _collect_module(name, ctx)
        self._stream_registry_loaded = False
        self._stream_registry = None

    def stream_registry(self) -> Optional[dict[str, tuple[int, ...]]]:
        """The ``STREAMS`` registry parsed from ``repro/sim/rng.py``.

        Parsed from the AST, never imported (the linted tree may not be
        importable, and ``repro.sim.rng`` pulls in numpy).  ``None`` when
        the corpus has no registry to check against.
        """
        if self._stream_registry_loaded:
            return self._stream_registry
        self._stream_registry_loaded = True
        mod = self.modules.get("repro.sim.rng")
        if mod is None:
            return None
        sym = mod.symbols.get("STREAMS")
        value = getattr(sym, "value", None)
        if not isinstance(value, ast.Dict):
            return None
        registry: dict[str, tuple[int, ...]] = {}
        for key, val in zip(value.keys, value.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                continue
            if isinstance(val, ast.Constant) and isinstance(val.value, int):
                registry[key.value] = (val.value,)
            elif isinstance(val, (ast.Tuple, ast.List)) and all(
                isinstance(e, ast.Constant) and isinstance(e.value, int)
                for e in val.elts
            ):
                registry[key.value] = tuple(e.value for e in val.elts)
        self._stream_registry = registry or None
        return self._stream_registry
