"""Simulator-specific rules: determinism and the DES timeline (SIM001-SIM004).

These rules encode the kernel's contracts:

* all time comes from ``Environment.now`` (simulated seconds) and all
  entropy from the seed — wall-clock reads, PIDs, random UUIDs and
  unseeded generators make runs irreproducible (SIM001);
* all randomness flows through an :class:`repro.sim.rng.RngHub` stream or
  an injected ``np.random.Generator`` — global RNG state couples
  components and breaks seed isolation (SIM002);
* simulated times are floats accumulated through an event heap, so exact
  ``==``/``!=`` on them is a latent heisenbug (SIM003);
* every tracer record call on a hot path must sit behind the
  ``tracer.enabled`` guard so the default ``NullTracer`` costs nothing
  (SIM004, the PR-1 zero-cost contract).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Severity, rule

# ---------------------------------------------------------------------------
# import tracking helpers


def _module_aliases(tree: ast.AST, module: str) -> set[str]:
    """Local names bound to ``module`` via ``import module [as alias]``."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module or alias.name.startswith(module + "."):
                    aliases.add((alias.asname or alias.name).split(".")[0])
    return aliases


def _from_imports(tree: ast.AST, module: str) -> dict[str, str]:
    """``{local_name: original_name}`` for ``from module import ...``."""
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
    return names


def _trailing_name(node: ast.AST) -> str | None:
    """The final identifier of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


# ---------------------------------------------------------------------------
# SIM001 — no wall-clock or OS-entropy source inside the simulator

_TIME_CLOCK_FNS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "localtime",
    "gmtime",
    "ctime",
}
_DATETIME_CLOCK_FNS = {"now", "utcnow", "today"}

@rule(
    "SIM001",
    Severity.ERROR,
    "no wall-clock or OS-entropy source inside src/repro — use "
    "Environment.now and RngHub streams",
    repro_only=True,
)
def check_wall_clock(ctx: FileContext) -> Iterator:
    # Deferred: the taint module builds its sink vocabulary from this one.
    from repro.lint.taint import (
        KIND_ENTROPY,
        KIND_WALL_CLOCK,
        _ModuleTables,
        classify_sink,
    )

    hints = {
        KIND_WALL_CLOCK: "use Environment.now (simulated seconds) instead",
        KIND_ENTROPY: "results, job payloads and cache keys must reproduce "
        "from the seed alone — draw from an RngHub stream instead",
    }
    tables = _ModuleTables(ctx.tree)
    for node in ctx.walk((ast.Call,)):
        kind, desc = classify_sink(node, tables) or (None, None)
        if kind in hints:
            yield node, f"{kind} source {desc} in simulator code; {hints[kind]}"


# ---------------------------------------------------------------------------
# SIM002 — no global RNG state

#: ``random.Random(seed)`` / ``random.SystemRandom`` construct private
#: instances, which is fine; everything else on the module mutates the
#: shared global generator.
_STDLIB_RNG_ALLOWED = {"Random", "SystemRandom", "getstate"}

#: Legacy ``np.random.*`` module-level functions that read or mutate the
#: process-global RandomState.
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


def _is_np_random(node: ast.AST, np_aliases: set[str]) -> bool:
    """True for ``np.random`` / ``numpy.random`` attribute chains."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in np_aliases
    )


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


def _hash_calls(node: ast.AST):
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "hash"
        ):
            yield sub


@rule(
    "SIM002",
    Severity.ERROR,
    "no global RNG — draw from an RngHub stream or an injected Generator",
)
def check_global_rng(ctx: FileContext) -> Iterator:
    np_aliases = _module_aliases(ctx.tree, "numpy") | {"np"}
    random_aliases = _module_aliases(ctx.tree, "random")
    stdlib_names = {
        local
        for local, orig in _from_imports(ctx.tree, "random").items()
        if orig not in _STDLIB_RNG_ALLOWED
    }
    npr_names = _from_imports(ctx.tree, "numpy.random")
    hint = "route randomness through an RngHub stream or an injected np.random.Generator"
    for node in ctx.walk((ast.Call,)):
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id in random_aliases
                and func.attr not in _STDLIB_RNG_ALLOWED
            ):
                yield node, f"global RNG call random.{func.attr}(); {hint}"
            elif _is_np_random(base, np_aliases):
                if func.attr in _NP_GLOBAL_FNS:
                    yield node, f"global RNG call np.random.{func.attr}(); {hint}"
                elif func.attr in ("default_rng", "RandomState") and not (
                    node.args or node.keywords
                ):
                    yield node, (
                        f"np.random.{func.attr}() without a seed is "
                        f"nondeterministic; {hint}"
                    )
            ctor = func.attr
            if ctor in _SEEDED_CTORS:
                for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                    for h in _hash_calls(arg):
                        yield h, (
                            f"seed for {ctor}(...) derived from builtin hash(); "
                            "string hashes are salted per process by "
                            "PYTHONHASHSEED — use repro.sim.rng.stable_seed "
                            "or an RngHub stream"
                        )
        elif isinstance(func, ast.Name):
            if func.id in _SEEDED_CTORS or npr_names.get(func.id) in _SEEDED_CTORS:
                for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                    for h in _hash_calls(arg):
                        yield h, (
                            f"seed for {func.id}(...) derived from builtin "
                            "hash(); string hashes are salted per process by "
                            "PYTHONHASHSEED — use repro.sim.rng.stable_seed "
                            "or an RngHub stream"
                        )
            if func.id in stdlib_names:
                yield node, f"global RNG call {func.id}() (from random); {hint}"
            elif npr_names.get(func.id) in _NP_GLOBAL_FNS:
                yield node, (
                    f"global RNG call {func.id}() (from numpy.random); {hint}"
                )
            elif npr_names.get(func.id) in ("default_rng", "RandomState") and not (
                node.args or node.keywords
            ):
                yield node, (
                    f"{func.id}() without a seed is nondeterministic; {hint}"
                )


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
    "begin",
    "end",
    "account_bytes",
}

_HOT_PACKAGES = ("core", "disk", "cluster")


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
    "tracer record calls in core/, disk/, cluster/ must be guarded by tracer.enabled",
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
