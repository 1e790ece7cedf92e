"""Whole-program view of the ``repro`` package: ``ProjectContext``.

The per-file rules (SIM001-SIM007) are blind across module boundaries: a
one-line wrapper (``def _now(): return time.time()`` in a utils module,
called from ``core/``) launders wall-clock reads past the entire rule
set.  This module builds what the interprocedural rules (SIM010-SIM012)
need to see through that:

* **corpus discovery** — linting any file under a ``repro`` package
  pulls the *whole* package into the analysis corpus, so cross-module
  resolution works even for partial path arguments;
* **module naming** — ``src/repro/core/access.py`` becomes
  ``repro.core.access`` (paths are mapped at the ``repro`` component, so
  fixture trees under ``tmp/src/repro/...`` analyse identically);
* a **module-qualified symbol table** — top-level functions, classes
  (with methods), assignments, imports, ``from``-imports, ``__all__``;
* an **import graph** and transitive re-export resolution (``from
  repro.core.pipeline import scheme_class`` in ``core/__init__`` resolves
  consumers of ``repro.core.scheme_class`` to the defining module);
* a **call graph** keyed by qualified function names
  (``repro.core.access:Access.run`` / ``repro.util.helpers:_now``),
  resolved conservatively: direct names, module-attribute chains,
  ``self``/``cls`` method calls within a class, and implicit
  enclosing->nested edges for closures.  Unresolvable calls (duck-typed
  receivers, higher-order dispatch) produce *no* edge — the analysis
  under-approximates rather than invent false chains.

Everything here is pure stdlib ``ast`` — no numpy, no imports of the
analysed code — so the CI lint job runs on a bare interpreter.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.lint.engine import FileContext

#: Packages whose functions must stay transitively deterministic: the
#: DES kernel and data path (``core``/``accesscore``/``disk``/
#: ``cluster``/``sim``), the payload-hash-caching layers
#: (``exec``/``serve``), and the repair economy (``rebuild`` — its
#: ledgers and schedulers feed pinned golden tables).
SIM_CRITICAL_PACKAGES = (
    "core", "accesscore", "disk", "cluster", "sim", "exec", "serve", "rebuild"
)


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

    Whole-program analysis must parse all of ``src/repro`` once even when
    only a sub-package is being linted, or taint laundered through an
    un-linted module would be invisible.
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
class FunctionInfo:
    """One function or method (or a module's top-level pseudo-function)."""

    qualname: str  #: ``module:Class.method`` / ``module:func`` / ``module:<module>``
    module: str
    node: Optional[ast.AST]  #: None for the ``<module>`` pseudo-function
    path: str
    line: int


@dataclass
class CallSite:
    """One resolved edge of the call graph."""

    caller: str
    callee: str
    node: ast.AST  #: the Call (or nested def) node inside the caller
    path: str


@dataclass
class ModuleInfo:
    """Symbol-table view of one module in the corpus."""

    name: str
    ctx: FileContext
    symbols: dict[str, ast.AST] = field(default_factory=dict)
    classes: dict[str, dict[str, ast.AST]] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)  #: alias -> module
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    star_imports: list[str] = field(default_factory=list)
    dunder_all: list[tuple[str, int]] = field(default_factory=list)  #: (name, line)

    @property
    def is_package(self) -> bool:
        return self.ctx.path.name == "__init__.py"

    @property
    def top_package(self) -> str:
        """First component below ``repro`` ("" for ``repro`` itself)."""
        parts = self.name.split(".")
        return parts[1] if len(parts) > 1 else ""


def _resolve_relative(module: ModuleInfo, level: int, target: Optional[str]) -> str:
    """Absolute module named by a relative ``from``-import."""
    base = module.name if module.is_package else module.name.rpartition(".")[0]
    for _ in range(level - 1):
        base = base.rpartition(".")[0]
    return f"{base}.{target}" if target else base


def _collect_module(name: str, ctx: FileContext) -> ModuleInfo:
    info = ModuleInfo(name=name, ctx=ctx)
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.symbols[node.name] = node
        elif isinstance(node, ast.ClassDef):
            info.symbols[node.name] = node
            methods = {
                stmt.name: stmt
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            info.classes[node.name] = methods
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
    for node in ctx.walk((ast.Import, ast.ImportFrom)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                info.imports[bound] = alias.name if alias.asname else alias.name.split(".")[0]
                if alias.asname is None:
                    # ``import repro.core.access`` binds ``repro`` but makes
                    # the full dotted chain resolvable.
                    info.imports.setdefault(alias.name, alias.name)
        else:
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
    """Import graph + symbol table + call graph over the analysis corpus.

    Built once per lint run from already-parsed :class:`FileContext`
    objects; the interprocedural rules and the taint fixpoint
    (:mod:`repro.lint.taint`) hang off it.
    """

    MODULE_FN = "<module>"

    def __init__(
        self,
        contexts: dict[Path, FileContext],
        linted: Optional[set[Path]] = None,
    ) -> None:
        #: resolved path -> FileContext for every corpus file.
        self.files = dict(contexts)
        self.linted = set(linted) if linted is not None else set(self.files)
        self.modules: dict[str, ModuleInfo] = {}
        for path, ctx in sorted(self.files.items(), key=lambda kv: str(kv[0])):
            name = module_name_for(ctx.path)
            if name is not None and name not in self.modules:
                self.modules[name] = _collect_module(name, ctx)
        self.functions: dict[str, FunctionInfo] = {}
        self.calls: dict[str, list[CallSite]] = {}
        self._qualnames: dict[int, str] = {}  # id(def node) -> qualname
        for mod in self.modules.values():
            self._index_functions(mod)
        for mod in self.modules.values():
            self._index_calls(mod)
        self._taint = None
        self._stream_registry_loaded = False
        self._stream_registry = None

    # -- import graph -----------------------------------------------------
    def import_graph(self) -> dict[str, set[str]]:
        """module -> set of corpus modules it imports (any mechanism)."""
        graph: dict[str, set[str]] = {}
        for mod in self.modules.values():
            deps: set[str] = set()
            for target in mod.imports.values():
                if target in self.modules:
                    deps.add(target)
            for src, orig in mod.from_imports.values():
                if f"{src}.{orig}" in self.modules:
                    deps.add(f"{src}.{orig}")
                elif src in self.modules:
                    deps.add(src)
            for src in mod.star_imports:
                if src in self.modules:
                    deps.add(src)
            deps.discard(mod.name)
            graph[mod.name] = deps
        return graph

    # -- function indexing ------------------------------------------------
    def _index_functions(self, mod: ModuleInfo) -> None:
        path = str(mod.ctx.path)
        root = FunctionInfo(
            qualname=f"{mod.name}:{self.MODULE_FN}",
            module=mod.name,
            node=None,
            path=path,
            line=1,
        )
        self.functions[root.qualname] = root

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{mod.name}:{prefix}{child.name}"
                    self._qualnames[id(child)] = qual
                    self.functions[qual] = FunctionInfo(
                        qualname=qual,
                        module=mod.name,
                        node=child,
                        path=path,
                        line=child.lineno,
                    )
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(mod.ctx.tree, "")

    def owner_of(self, mod: ModuleInfo, node: ast.AST) -> str:
        """Qualname of the function whose body contains ``node``."""
        for ancestor in mod.ctx.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = self._qualnames.get(id(ancestor))
                if qual is not None:
                    return qual
        return f"{mod.name}:{self.MODULE_FN}"

    def enclosing_class(self, mod: ModuleInfo, node: ast.AST) -> Optional[str]:
        for ancestor in mod.ctx.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor.name
        return None

    # -- symbol resolution ------------------------------------------------
    def resolve_function(
        self, module: str, name: str, _seen: Optional[set] = None
    ) -> Optional[str]:
        """Qualname of the function/ctor ``name`` refers to in ``module``.

        Follows ``from``-import chains across re-exporting modules (a
        shim's ``from impl import f`` resolves consumers to ``impl:f``);
        a class resolves to its ``__init__`` when defined.  Returns
        ``None`` for anything not statically resolvable in the corpus.
        """
        seen = _seen or set()
        if (module, name) in seen or module not in self.modules:
            return None
        seen.add((module, name))
        mod = self.modules[module]
        sym = mod.symbols.get(name)
        if isinstance(sym, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return self._qualnames.get(id(sym))
        if isinstance(sym, ast.ClassDef):
            init = mod.classes.get(name, {}).get("__init__")
            return self._qualnames.get(id(init)) if init is not None else None
        if name in mod.from_imports:
            src, orig = mod.from_imports[name]
            if f"{src}.{orig}" in self.modules:
                return None  # a module object, not a callable
            return self.resolve_function(src, orig, seen)
        for src in mod.star_imports:
            resolved = self.resolve_function(src, name, seen)
            if resolved is not None:
                return resolved
        return None

    def _module_for_chain(self, mod: ModuleInfo, names: list[str]) -> Optional[tuple[str, int]]:
        """Longest prefix of ``names`` that denotes a corpus module.

        Returns ``(module_name, consumed)`` or ``None``.  Handles plain
        dotted imports (``repro.core.access``), aliases (``import x as
        y``) and module-binding ``from``-imports (``from repro import
        core``).
        """
        head = names[0]
        candidates: list[tuple[str, int]] = []
        if head in mod.from_imports:
            src, orig = mod.from_imports[head]
            dotted = f"{src}.{orig}"
            if dotted in self.modules:
                candidates.append((dotted, 1))
        if head in mod.imports:
            base = mod.imports[head]
            candidates.append((base, 1))
        # Full dotted chain bound by ``import a.b.c``.
        for k in range(len(names), 1, -1):
            dotted = ".".join(names[:k])
            if dotted in mod.imports and dotted in self.modules:
                candidates.append((dotted, k))
        best: Optional[tuple[str, int]] = None
        for base, consumed in candidates:
            # Extend with further chain links while they name submodules.
            cur, k = base, consumed
            while k < len(names) and f"{cur}.{names[k]}" in self.modules:
                cur, k = f"{cur}.{names[k]}", k + 1
            if cur in self.modules and (best is None or k > best[1]):
                best = (cur, k)
        return best

    # -- call graph -------------------------------------------------------
    def _index_calls(self, mod: ModuleInfo) -> None:
        path = str(mod.ctx.path)
        for node in mod.ctx.walk((ast.Call,)):
            caller = self.owner_of(mod, node)
            callee = self._resolve_call(mod, node)
            if callee is not None and callee in self.functions:
                self.calls.setdefault(caller, []).append(
                    CallSite(caller=caller, callee=callee, node=node, path=path)
                )
        # Defining a closure taints the definer: a nested function's
        # behaviour escapes through the enclosing function's return
        # value, so treat the definition as a call edge.  Top-level defs
        # and methods (owner ``<module>``) get no edge — merely defining
        # them does not run them.
        for node in mod.ctx.walk((ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = self._qualnames.get(id(node))
            if qual is None:
                continue
            owner = self.owner_of(mod, node)
            if owner.endswith(f":{self.MODULE_FN}"):
                continue
            self.calls.setdefault(owner, []).append(
                CallSite(caller=owner, callee=qual, node=node, path=path)
            )

    def _resolve_call(self, mod: ModuleInfo, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            return self.resolve_function(mod.name, func.id)
        if isinstance(func, ast.Attribute):
            names = _attr_chain(func)
            if names is None:
                return None
            if names[0] in ("self", "cls") and len(names) == 2:
                cls = self.enclosing_class(mod, call)
                if cls is not None:
                    method = mod.classes.get(cls, {}).get(names[1])
                    if method is not None:
                        return self._qualnames.get(id(method))
                return None
            prefix = names[:-1]
            hit = self._module_for_chain(mod, prefix)
            if hit is not None:
                target_mod, consumed = hit
                if consumed == len(prefix):
                    return self.resolve_function(target_mod, names[-1])
        return None

    # -- callers view (for taint propagation) ------------------------------
    def reverse_calls(self) -> dict[str, list[CallSite]]:
        """callee -> call sites that reach it (deterministic order)."""
        rev: dict[str, list[CallSite]] = {}
        for caller in sorted(self.calls):
            for site in self.calls[caller]:
                rev.setdefault(site.callee, []).append(site)
        return rev

    # -- lazy analyses -----------------------------------------------------
    def taint(self):
        """The cached transitive-nondeterminism analysis (SIM010)."""
        if self._taint is None:
            from repro.lint.taint import TaintAnalysis

            self._taint = TaintAnalysis(self)
        return self._taint

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
