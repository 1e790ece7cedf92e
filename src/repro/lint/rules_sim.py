"""Simulator-specific rules: determinism and the DES timeline (SIM001-SIM004).

These rules encode the kernel's contracts:

* all time comes from ``Environment.now`` (simulated seconds) and all
  entropy from the seed — wall-clock reads, PIDs, random UUIDs and
  ``secrets`` make runs irreproducible (SIM001);
* all randomness flows through an :class:`repro.sim.rng.RngHub` stream or
  an injected ``np.random.Generator`` — global RNG state, unseeded
  generators and ``hash()``-derived seeds break seed isolation (SIM002);
* simulated times are floats accumulated through an event heap, so exact
  ``==``/``!=`` on them is a latent heisenbug (SIM003);
* every tracer record call on a hot path must sit behind the
  ``tracer.enabled`` guard so the default ``NullTracer`` costs nothing
  (SIM004, the PR-1 zero-cost contract).

SIM001 and SIM002 share one sink vocabulary, :func:`classify_sink`, and
split its families between them (:data:`SINK_RULES`): every banned call
is reported by exactly one rule.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.engine import FileContext, Severity, rule


def _trailing_name(node: ast.AST) -> str | None:
    """The final identifier of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


# ---------------------------------------------------------------------------
# the sink vocabulary of SIM001 and SIM002

WALL_CLOCK = "wall-clock"
ENTROPY = "entropy"
GLOBAL_RNG = "global-RNG"
UNSEEDED_RNG = "unseeded-RNG"
HASH_SEED = "hash-seed"

#: Wall-clock reads.  ``time.perf_counter`` is deliberately absent: it
#: measures the host (encode throughput, job timing), never the timeline.
_WALL_CLOCK_FNS = {
    "time": {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "localtime",
        "gmtime",
        "ctime",
    },
    "datetime": {"now", "utcnow", "today"},
}

#: Per-process or per-boot values; every ``secrets`` call is one too.
#: ``uuid3``/``uuid5`` are content hashes and therefore deterministic.
_ENTROPY_FNS = {
    "os": {"getpid", "getppid", "urandom", "times"},
    "uuid": {"uuid1", "uuid4"},
    "random": {"SystemRandom"},
}

#: Generators that seed themselves from OS entropy when given no seed.
_UNSEEDED_CTORS = {
    "random": {"Random"},
    "numpy.random": {"default_rng", "RandomState", "SeedSequence"},
}

#: Legacy ``np.random.*`` module-level functions that read or mutate the
#: process-global RandomState.  On the stdlib ``random`` module every
#: function but ``getstate`` does.
_NP_GLOBAL_FNS = {
    "seed", "get_state", "set_state", "random", "random_sample", "ranf",
    "sample", "rand", "randn", "randint", "random_integers", "bytes",
    "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "exponential", "standard_exponential", "poisson",
    "binomial", "negative_binomial", "geometric", "hypergeometric",
    "gamma", "standard_gamma", "beta", "chisquare", "noncentral_chisquare",
    "standard_t", "standard_cauchy", "f", "noncentral_f", "zipf", "pareto",
    "lognormal", "laplace", "weibull", "triangular", "vonmises",
    "rayleigh", "wald", "power", "gumbel", "logistic", "logseries",
    "multinomial", "multivariate_normal", "dirichlet",
}  # fmt: skip

#: Constructors whose argument is a seed; deriving that seed from builtin
#: ``hash()`` is nondeterministic (strings are salted by PYTHONHASHSEED).
_SEEDED_CTORS = {
    "default_rng",
    "RandomState",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
    "Random",
    "RngHub",
    "seed",
}


class ImportTables:
    """What a file's local names are bound to, from one pass over its imports.

    Imports anywhere in the file count (function-local lazy imports
    included).  Relative imports name corpus modules, never the stdlib or
    numpy, so they are skipped.
    """

    def __init__(self, tree: ast.AST) -> None:
        #: local name -> module, from ``import m`` / ``import m.sub as x``
        self.modules: dict[str, str] = {}
        #: local name -> (module, original name), from ``from m import f``
        self.names: dict[str, tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.modules[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.modules[head] = head
            elif isinstance(node, ast.ImportFrom) and not node.level:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = (node.module, alias.name)
        self.numpy = {"np"} | {k for k, m in self.modules.items() if m == "numpy"}
        self.datetime = {"datetime", "date"}
        self.datetime |= {k for k, m in self.modules.items() if m == "datetime"}
        self.datetime |= {
            k
            for k, src in self.names.items()
            if src in (("datetime", "datetime"), ("datetime", "date"))
        }


def _callee(
    func: ast.AST, tables: ImportTables
) -> tuple[Optional[str], Optional[str]]:
    """``(module, name)`` a call's target resolves to through the imports.

    ``module`` is None for a target not reached through an import (a
    local, a method of some object); ``name`` is None for a target that
    is no name or attribute at all.
    """
    if isinstance(func, ast.Name):
        return tables.names.get(func.id, (None, func.id))
    if not isinstance(func, ast.Attribute):
        return None, None
    base = func.value
    if isinstance(base, ast.Name) and base.id in tables.modules:
        return tables.modules[base.id], func.attr
    if _trailing_name(base) in tables.datetime:
        return "datetime", func.attr
    if (
        isinstance(base, ast.Attribute)
        and base.attr == "random"
        and isinstance(base.value, ast.Name)
        and base.value.id in tables.numpy
    ):
        return "numpy.random", func.attr
    return None, func.attr


def _hash_seeded(node: ast.Call) -> bool:
    """True if any argument of ``node`` contains a builtin ``hash()`` call."""
    return any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Name)
        and sub.func.id == "hash"
        for arg in [*node.args, *(kw.value for kw in node.keywords)]
        for sub in ast.walk(arg)
    )


def classify_sink(node: ast.Call, tables: ImportTables) -> Optional[str]:
    """The sink family of ``node``, or None for a deterministic call.

    The lint's one sink vocabulary: :data:`SINK_RULES` names the rule
    that reports each family.  Seeded constructors are exempt unless
    the seed comes from builtin ``hash()``.
    """
    module, name = _callee(node.func, tables)
    if name in _WALL_CLOCK_FNS.get(module, ()):
        return WALL_CLOCK
    if module == "secrets" or name in _ENTROPY_FNS.get(module, ()):
        return ENTROPY
    if name in _UNSEEDED_CTORS.get(module, ()):
        # A seeded constructor is a private generator: only the origin of
        # its seed can make it a sink (below).
        if not node.args and not node.keywords:
            return UNSEEDED_RNG
    elif (module == "random" and name != "getstate") or (
        module == "numpy.random" and name in _NP_GLOBAL_FNS
    ):
        return GLOBAL_RNG
    if name in _SEEDED_CTORS and _hash_seeded(node):
        return HASH_SEED
    return None


_RNG_HINT = (
    "route randomness through an RngHub stream or an injected np.random.Generator"
)

#: Sink family -> (the one rule that reports it, message template).
SINK_RULES = {
    WALL_CLOCK: (
        "SIM001",
        "wall-clock source {}() in simulator code; use Environment.now "
        "(simulated seconds) instead",
    ),
    ENTROPY: (
        "SIM001",
        "entropy source {}() in simulator code; results, job payloads and "
        "cache keys must reproduce from the seed alone — draw from an "
        "RngHub stream instead",
    ),
    GLOBAL_RNG: ("SIM002", "global RNG call {}(); " + _RNG_HINT),
    UNSEEDED_RNG: (
        "SIM002",
        "{}() without a seed draws its seed from OS entropy; " + _RNG_HINT,
    ),
    HASH_SEED: (
        "SIM002",
        "seed for {}(...) derived from builtin hash(); string hashes are "
        "salted per process by PYTHONHASHSEED — use "
        "repro.sim.rng.stable_seed or an RngHub stream",
    ),
}


def _sink_findings(ctx: FileContext, rule_id: str) -> Iterator:
    tables = ImportTables(ctx.tree)
    for node in ctx.walk((ast.Call,)):
        owner, message = SINK_RULES.get(classify_sink(node, tables), (None, ""))
        if owner == rule_id:
            yield node, message.format(ast.unparse(node.func))


# ---------------------------------------------------------------------------
# SIM001 — no wall-clock or OS-entropy source inside the simulator


@rule(
    "SIM001",
    Severity.ERROR,
    "no wall-clock or OS-entropy source inside src/repro — use "
    "Environment.now and RngHub streams",
    repro_only=True,
)
def check_wall_clock(ctx: FileContext) -> Iterator:
    return _sink_findings(ctx, "SIM001")


# ---------------------------------------------------------------------------
# SIM002 — no global RNG state, unseeded generator or hash()-derived seed


@rule(
    "SIM002",
    Severity.ERROR,
    "no global RNG — draw from an RngHub stream or an injected Generator",
)
def check_global_rng(ctx: FileContext) -> Iterator:
    return _sink_findings(ctx, "SIM002")


# ---------------------------------------------------------------------------
# SIM003 — no exact float equality on simulated-time expressions


def _called_attrs(node: ast.AST) -> set[int]:
    """ids of Attribute nodes that are the func of a Call within ``node``."""
    return {
        id(sub.func)
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
    }


@rule(
    "SIM003",
    Severity.ERROR,
    "no float ==/!= on simulated-time expressions",
)
def check_time_equality(ctx: FileContext) -> Iterator:
    for node in ctx.walk((ast.Compare,)):
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        called = _called_attrs(node)
        for operand in operands:
            hit = False
            for sub in ast.walk(operand):
                if isinstance(sub, ast.Attribute) and sub.attr == "now":
                    if id(sub) not in called:  # `.now(...)` call is SIM001
                        hit = True
                        break
                elif isinstance(sub, ast.Name) and sub.id == "now":
                    hit = True
                    break
            if hit:
                yield node, (
                    "exact ==/!= on a simulated-time expression; simulated "
                    "times are accumulated floats — compare with a tolerance "
                    "(math.isclose) or use ordered comparisons"
                )
                break


# ---------------------------------------------------------------------------
# SIM004 — tracer record calls on hot paths must be enabled-guarded

_TRACER_RECORD_METHODS = {
    "span",
    "instant",
    "counter",
    "count",
    "account_bytes",
}

#: The per-access data path: both engines, their shared access core, the
#: DES kernel and fault injection.  ``exec`` is left out: its one
#: unguarded span is emitted only on a traced run.
_HOT_PACKAGES = ("core", "accesscore", "disk", "cluster", "sim", "faults")


def _is_tracer_ref(node: ast.AST) -> bool:
    """True for ``tracer`` / ``self.tracer`` / ``cluster.tracer`` etc."""
    name = _trailing_name(node)
    return name is not None and name.endswith("tracer")


def _test_guards_tracer(test: ast.AST) -> bool:
    """True if ``test`` reads ``<tracer>.enabled`` somewhere."""
    for sub in ast.walk(test):
        if (
            isinstance(sub, ast.Attribute)
            and sub.attr in ("enabled", "detail")
            and _is_tracer_ref(sub.value)
        ):
            return True
    return False


def _has_early_return_guard(func: ast.AST, call: ast.Call) -> bool:
    """True if a ``if not tracer.enabled: return`` precedes ``call``.

    Only top-level statements of the enclosing function are considered —
    the idiom used throughout ``accesscore/timeline.py``.
    """
    body = getattr(func, "body", [])
    for stmt in body:
        if stmt.lineno >= call.lineno:
            break
        if (
            isinstance(stmt, ast.If)
            and isinstance(stmt.test, ast.UnaryOp)
            and isinstance(stmt.test.op, ast.Not)
            and _test_guards_tracer(stmt.test)
            and stmt.body
            and isinstance(stmt.body[-1], (ast.Return, ast.Raise, ast.Continue))
        ):
            return True
    return False


@rule(
    "SIM004",
    Severity.ERROR,
    "tracer record calls on hot paths must be guarded by tracer.enabled",
    packages=_HOT_PACKAGES,
)
def check_tracer_guard(ctx: FileContext) -> Iterator:
    for node in ctx.walk((ast.Call,)):
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _TRACER_RECORD_METHODS
            and _is_tracer_ref(func.value)
        ):
            continue
        guarded = False
        enclosing_func = None
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.If, ast.IfExp)) and _test_guards_tracer(
                ancestor.test
            ):
                guarded = True
                break
            if enclosing_func is None and isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                enclosing_func = ancestor
        if not guarded and enclosing_func is not None:
            guarded = _has_early_return_guard(enclosing_func, node)
        if not guarded:
            yield node, (
                f"tracer.{func.attr}(...) on a hot path without a "
                "`tracer.enabled` guard; wrap it in `if tracer.enabled:` so "
                "the NullTracer default stays zero-cost"
            )
