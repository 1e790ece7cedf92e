"""Rule registry, findings, pragma handling and the file walker.

A *rule* is a callable taking a :class:`FileContext` and yielding
:class:`Finding` objects.  Rules self-register through the :func:`rule`
decorator; the CLI (:mod:`repro.lint.cli`) runs every registered rule
over every ``.py`` file under the given paths.

Two kinds of rules:

* **file rules** (the default) see one :class:`FileContext` at a time;
* **project rules** (``project=True``) see the whole-program
  :class:`repro.lint.project.ProjectContext` — the corpus and its
  symbol tables — and yield ``(path, node_or_line, message)`` triples
  anywhere in the corpus.

Scoping is declarative: ``rule(..., repro_only=True)`` limits a rule to
files under ``src/repro``; ``packages=("core", "disk")`` limits it to
``repro/<pkg>/`` subtrees (``"core/policy"`` matches the nested
directory).  ``--list-rules`` prints each rule's scope.

Suppression: a ``# lint: disable=SIM001`` comment on the finding's line
silences that rule there (comma-separate several ids; ``all`` silences
everything on the line).  Suppressions are line-scoped on purpose — a
justification comment belongs next to the code it excuses.
"""

from __future__ import annotations

import ast
import enum
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional


class Severity(enum.Enum):
    """How bad a finding is; only errors affect the exit code."""

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity.value}] {self.message}"
        )

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)


@dataclass(frozen=True)
class Rule:
    """A registered check: metadata plus the callable that runs it."""

    id: str
    severity: Severity
    summary: str
    check: Callable[..., Iterator]
    #: Restrict to ``repro/<pkg>/`` subtrees ("core/policy" matches the
    #: nested directory).  Empty means no package restriction.
    packages: tuple[str, ...] = ()
    #: Restrict to files under the ``repro`` package (``src/repro/...``).
    repro_only: bool = False
    #: Whole-program rule: ``check`` receives a ProjectContext and yields
    #: ``(path, node_or_line, message)`` for any file in the corpus.
    project: bool = False

    @property
    def scope(self) -> str:
        """Human-readable scope for ``--list-rules``."""
        if self.packages:
            inner = ",".join(self.packages)
            where = f"repro/{{{inner}}}" if len(self.packages) > 1 else f"repro/{inner}"
        elif self.repro_only:
            where = "src/repro"
        else:
            where = "all files"
        return f"{where}, whole-program" if self.project else where


_REGISTRY: dict[str, Rule] = {}


def rule(
    rule_id: str,
    severity: Severity,
    summary: str,
    *,
    packages: tuple[str, ...] = (),
    repro_only: bool = False,
    project: bool = False,
):
    """Register ``fn`` as the check for ``rule_id``.

    File rules: ``fn(ctx)`` receives a :class:`FileContext` and yields
    ``(node_or_line, message)`` pairs or :class:`Finding` objects; pairs
    are wrapped into findings carrying the rule's id and severity.  The
    declared ``packages`` / ``repro_only`` scope is applied by the engine
    before ``fn`` runs, so checks need no hand-rolled path tests.

    Project rules (``project=True``): ``fn(project)`` receives a
    :class:`~repro.lint.project.ProjectContext` and yields
    ``(path, node_or_line, message)`` triples; the engine wraps them,
    applies line pragmas, and drops findings outside the linted file set.
    """

    def decorate(fn: Callable) -> Callable:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate lint rule id {rule_id!r}")
        _REGISTRY[rule_id] = Rule(
            rule_id,
            severity,
            summary,
            fn,
            packages=tuple(packages),
            repro_only=repro_only,
            project=project,
        )
        return fn

    return decorate


def all_rules() -> dict[str, Rule]:
    """The registered rules, keyed by id (import-order stable)."""
    return dict(_REGISTRY)


#: ``# lint: disable=SIM001`` / ``# lint: disable=SIM001,SIM005`` / ``=all``
_PRAGMA_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+)")


def _parse_pragmas(lines: list[str]) -> dict[int, set[str]]:
    disabled: dict[int, set[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        if "lint:" not in text:
            continue
        m = _PRAGMA_RE.search(text)
        if m:
            ids = {part.strip() for part in m.group(1).split(",") if part.strip()}
            disabled.setdefault(lineno, set()).update(ids)
    return disabled


class FileContext:
    """Parsed view of one source file handed to every rule.

    Exposes the AST, a child->parent map (for guard/ancestry checks), the
    raw lines, the path split into parts (for scope decisions like
    "only under ``src/repro``") and pragma bookkeeping.
    """

    def __init__(self, path: str | Path, source: str) -> None:
        self.path = Path(path)
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.disabled = _parse_pragmas(self.lines)
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    # -- path scope ------------------------------------------------------
    @property
    def parts(self) -> tuple[str, ...]:
        return self.path.parts

    def under_repro(self) -> bool:
        """True for files in the simulator package (``src/repro/...``)."""
        return "repro" in self.parts

    def in_packages(self, *names: str) -> bool:
        """True if the file lives under ``repro/<name>/`` for any name.

        A name may contain ``/`` to match a nested directory chain:
        ``in_packages("core/policy")`` is true only for files under
        ``repro/core/policy/``.
        """
        parts = self.parts
        if "repro" not in parts:
            return False
        tail = parts[parts.index("repro") + 1 : -1]  # dirs below repro/
        for name in names:
            seq = tuple(name.split("/"))
            n = len(seq)
            if any(tail[i : i + n] == seq for i in range(len(tail) - n + 1)):
                return True
        return False

    # -- AST helpers -----------------------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self._parents.get(node)
        while cur is not None:
            yield cur
            cur = self._parents.get(cur)

    def walk(self, types: tuple = ()) -> Iterator[ast.AST]:
        for node in ast.walk(self.tree):
            if not types or isinstance(node, types):
                yield node

    # -- suppression -----------------------------------------------------
    def is_disabled(self, rule_id: str, line: int) -> bool:
        ids = self.disabled.get(line)
        return bool(ids) and (rule_id in ids or "all" in ids)


def rule_applies(rule_obj: Rule, ctx: FileContext) -> bool:
    """Apply the declarative scope of a file rule to one file."""
    if rule_obj.repro_only and not ctx.under_repro():
        return False
    if rule_obj.packages and not ctx.in_packages(*rule_obj.packages):
        return False
    return True


def _as_finding(rule_obj: Rule, ctx: FileContext, item) -> Finding:
    if isinstance(item, Finding):
        return item
    node, message = item
    if isinstance(node, ast.AST):
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
    else:
        line, col = int(node), 1
    return Finding(
        rule=rule_obj.id,
        severity=rule_obj.severity,
        path=str(ctx.path),
        line=line,
        col=col,
        message=message,
    )


def _syntax_finding(path: str | Path, exc: SyntaxError) -> Finding:
    return Finding(
        rule="SYNTAX",
        severity=Severity.ERROR,
        path=str(path),
        line=exc.lineno or 1,
        col=(exc.offset or 0) or 1,
        message=f"cannot parse: {exc.msg}",
    )


def lint_source(
    source: str,
    path: str | Path = "<string>",
    select: Optional[Iterable[str]] = None,
) -> list[Finding]:
    """Run the (selected) file rules over one source string.

    Project rules need the whole corpus and are skipped here; use
    :func:`lint_paths` / :func:`run_lint` to run them.
    """
    try:
        ctx = FileContext(path, source)
    except SyntaxError as exc:
        return [_syntax_finding(path, exc)]
    wanted = set(select) if select is not None else None
    findings: list[Finding] = []
    for rule_obj in _REGISTRY.values():
        if wanted is not None and rule_obj.id not in wanted:
            continue
        if rule_obj.project or not rule_applies(rule_obj, ctx):
            continue
        for item in rule_obj.check(ctx):
            finding = _as_finding(rule_obj, ctx, item)
            if not ctx.is_disabled(finding.rule, finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: f.sort_key)
    return findings


def lint_file(path: str | Path, select: Optional[Iterable[str]] = None) -> list[Finding]:
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, path, select)


def iter_py_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic list of ``.py`` files.

    Deduplicated by resolved path: overlapping arguments (``src/
    src/repro/serve``) or a file named twice yield each file exactly
    once, so no finding is ever reported twice.
    """
    seen: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates = sorted(q for q in p.rglob("*.py") if q.is_file())
        elif p.suffix == ".py" and p.is_file():
            candidates = [p]
        else:
            continue
        for q in candidates:
            resolved = q.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield q


@dataclass
class LintReport:
    """One lint run's full result: findings plus run metadata."""

    findings: list[Finding]
    files_checked: int
    #: Cumulative seconds per rule id (project rules measured once,
    #: file rules summed over files).
    rule_seconds: dict[str, float] = field(default_factory=dict)


def _wrap_project_item(rule_obj: Rule, item, contexts) -> Optional[Finding]:
    """Turn a project-rule yield into a Finding, honouring pragmas."""
    if isinstance(item, Finding):
        finding = item
    else:
        path, node, message = item
        if isinstance(node, ast.AST):
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0) + 1
        else:
            line, col = int(node), 1
        finding = Finding(
            rule=rule_obj.id,
            severity=rule_obj.severity,
            path=str(path),
            line=line,
            col=col,
            message=message,
        )
    ctx = contexts.get(Path(finding.path).resolve())
    if ctx is not None and ctx.is_disabled(finding.rule, finding.line):
        return None
    return finding


def run_lint(
    paths: Iterable[str | Path],
    select: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths``; the full-fat entry point.

    Runs file rules per file and project rules once over the whole
    analysis corpus (the linted files plus, when any project rule is
    selected, every file of each ``repro`` package touched — so
    cross-module analysis sees the whole program even for a partial
    path argument).  Findings outside the linted set are dropped.
    """
    wanted = set(select) if select is not None else None
    rules = [r for r in _REGISTRY.values() if wanted is None or r.id in wanted]
    project_rules = [r for r in rules if r.project]

    linted = list(iter_py_files(paths))
    linted_resolved = {p.resolve() for p in linted}
    findings: list[Finding] = []
    seconds: dict[str, float] = {r.id: 0.0 for r in rules}
    contexts: dict[Path, FileContext] = {}  # resolved path -> ctx (corpus)
    linted_ctxs: list[FileContext] = []
    for p in linted:
        try:
            ctx = FileContext(p, p.read_text(encoding="utf-8"))
        except SyntaxError as exc:
            findings.append(_syntax_finding(p, exc))
            continue
        contexts[p.resolve()] = ctx
        linted_ctxs.append(ctx)
    if project_rules:
        from repro.lint.project import discover_corpus

        for extra in discover_corpus(linted):
            resolved = extra.resolve()
            if resolved in linted_resolved:
                continue
            try:
                contexts[resolved] = FileContext(extra, extra.read_text(encoding="utf-8"))
            except SyntaxError:
                continue  # not linted here; its own lint run reports it

    for rule_obj in rules:
        if rule_obj.project:
            continue
        t0 = time.perf_counter()
        for ctx in linted_ctxs:
            if not rule_applies(rule_obj, ctx):
                continue
            for item in rule_obj.check(ctx):
                finding = _as_finding(rule_obj, ctx, item)
                if not ctx.is_disabled(finding.rule, finding.line):
                    findings.append(finding)
        seconds[rule_obj.id] += time.perf_counter() - t0

    if project_rules:
        from repro.lint.project import ProjectContext

        t0 = time.perf_counter()
        project = ProjectContext(contexts)
        build_s = time.perf_counter() - t0
        for rule_obj in project_rules:
            t0 = time.perf_counter()
            for item in rule_obj.check(project):
                finding = _wrap_project_item(rule_obj, item, contexts)
                if finding is None:
                    continue
                if Path(finding.path).resolve() not in linted_resolved:
                    continue
                findings.append(finding)
            seconds[rule_obj.id] += time.perf_counter() - t0
        # Charge corpus construction evenly to the rules that need it.
        for rule_obj in project_rules:
            seconds[rule_obj.id] += build_s / len(project_rules)

    findings.sort(key=lambda f: f.sort_key)
    return LintReport(findings=findings, files_checked=len(linted), rule_seconds=seconds)


def lint_paths(
    paths: Iterable[str | Path],
    select: Optional[Iterable[str]] = None,
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths``; findings come back sorted."""
    return run_lint(paths, select).findings
