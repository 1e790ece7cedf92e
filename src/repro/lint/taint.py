"""Interprocedural nondeterminism taint: summaries + fixpoint (SIM010).

Per-function **summaries** record whether a function *directly* touches a
banned source — a wall-clock read, OS/process entropy, or global RNG
state (the same families SIM001/SIM002 flag per-file, with the same
``time.perf_counter`` benchmark allowlist).  A breadth-first
**fixpoint over the reverse call graph** then propagates those bits to
every caller, so ``core.run -> utils.stamp -> utils._now ->
time.time()`` is caught even though ``core.run`` itself looks clean to
every per-file rule.

BFS (rather than an order-free worklist) gives each tainted function the
*shortest* witness chain, and processing functions in sorted order makes
the chosen chain deterministic — lint output must be byte-stable for the
findings cache and the CI double-run diff.

Pragmas are honoured **at the sink**: a line that disables SIM010 — or
the per-file rule that owns that sink family (SIM001 for wall-clock and
entropy, SIM002 for global RNG and unseeded generators) — stops the taint
at its source, so one justified suppression does not need to be repeated up
the call chain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from repro.lint.rules_sim import (
    _DATETIME_CLOCK_FNS,
    _NP_GLOBAL_FNS,
    _STDLIB_RNG_ALLOWED,
    _TIME_CLOCK_FNS,
    _from_imports,
    _is_np_random,
    _module_aliases,
    _trailing_name,
)

#: Sink kinds and the per-file rules whose pragma also silences them.
KIND_WALL_CLOCK = "wall-clock"
KIND_ENTROPY = "entropy"
KIND_GLOBAL_RNG = "global-RNG"

_KIND_BASE_RULES = {
    KIND_WALL_CLOCK: ("SIM001",),
    KIND_ENTROPY: ("SIM001", "SIM002"),
    KIND_GLOBAL_RNG: ("SIM002",),
}

#: ``os`` functions yielding per-process / per-boot values.
_OS_PROCESS_FNS = {"getpid", "getppid", "urandom", "times"}

#: ``uuid`` constructors that are time- or entropy-derived (uuid3/uuid5
#: are content hashes and therefore deterministic).
_UUID_NONDET_FNS = {"uuid1", "uuid4"}

#: Unseeded-entropy constructors (fresh OS seed behind a clean API).
_UNSEEDED_CTORS = {"default_rng", "RandomState", "SeedSequence"}


@dataclass(frozen=True)
class Sink:
    """One direct banned call inside some function's body."""

    kind: str
    desc: str  #: e.g. ``time.time()`` — what to print in the chain
    node: ast.AST
    path: str
    line: int


@dataclass
class Taint:
    """Why one function reaches a banned source, with its witness."""

    kind: str
    #: The call (or sink) node *inside this function* that leads one hop
    #: down the witness chain — where the finding is anchored.
    via: ast.AST
    #: Next function down the chain (None when ``via`` is the sink itself).
    next_hop: Optional[str]
    sink: Sink
    depth: int


class _ModuleTables:
    """Per-module alias tables shared by every sink classification."""

    def __init__(self, tree: ast.AST) -> None:
        self.time_aliases = _module_aliases(tree, "time")
        self.datetime_aliases = _module_aliases(tree, "datetime")
        self.os_aliases = _module_aliases(tree, "os")
        self.uuid_aliases = _module_aliases(tree, "uuid")
        self.secrets_aliases = _module_aliases(tree, "secrets")
        self.random_aliases = _module_aliases(tree, "random")
        self.np_aliases = _module_aliases(tree, "numpy") | {"np"}
        self.from_time = {
            local
            for local, orig in _from_imports(tree, "time").items()
            if orig in _TIME_CLOCK_FNS
        }
        self.from_os = {
            local: orig
            for local, orig in _from_imports(tree, "os").items()
            if orig in _OS_PROCESS_FNS
        }
        self.from_uuid = {
            local: orig
            for local, orig in _from_imports(tree, "uuid").items()
            if orig in _UUID_NONDET_FNS
        }
        self.from_secrets = _from_imports(tree, "secrets")
        self.from_random = _from_imports(tree, "random")
        self.from_npr = _from_imports(tree, "numpy.random")
        self.from_datetime = {
            local
            for local, orig in _from_imports(tree, "datetime").items()
            if orig in ("datetime", "date")
        }


def classify_sink(node: ast.Call, tables: _ModuleTables) -> Optional[tuple[str, str]]:
    """``(kind, description)`` when ``node`` is a direct banned call.

    The one sink vocabulary: SIM001 flags its wall-clock and entropy
    kinds per file, SIM010 propagates all three kinds up the call graph.
    ``time.perf_counter`` is allowed (it is simply not in the banned set),
    and seeded constructors are exempt.
    """
    func = node.func
    unseeded = not node.args and not node.keywords
    if isinstance(func, ast.Attribute):
        attr = func.attr
        base = func.value
        if isinstance(base, ast.Name):
            bid = base.id
            if bid in tables.time_aliases and attr in _TIME_CLOCK_FNS:
                return KIND_WALL_CLOCK, f"time.{attr}()"
            if bid in tables.os_aliases and attr in _OS_PROCESS_FNS:
                return KIND_ENTROPY, f"os.{attr}()"
            if bid in tables.uuid_aliases and attr in _UUID_NONDET_FNS:
                return KIND_ENTROPY, f"uuid.{attr}()"
            if bid in tables.secrets_aliases:
                return KIND_ENTROPY, f"secrets.{attr}()"
            if bid in tables.random_aliases:
                if attr == "SystemRandom" or (attr == "Random" and unseeded):
                    return KIND_ENTROPY, f"random.{attr}()"
                if attr not in _STDLIB_RNG_ALLOWED:
                    return KIND_GLOBAL_RNG, f"random.{attr}()"
        if attr in _DATETIME_CLOCK_FNS and _trailing_name(base) in (
            {"datetime", "date"} | tables.datetime_aliases | tables.from_datetime
        ):
            return KIND_WALL_CLOCK, f"{_trailing_name(base)}.{attr}()"
        if _is_np_random(base, tables.np_aliases):
            if attr in _NP_GLOBAL_FNS:
                return KIND_GLOBAL_RNG, f"np.random.{attr}()"
            if attr in _UNSEEDED_CTORS and unseeded:
                return KIND_ENTROPY, f"np.random.{attr}()"
    elif isinstance(func, ast.Name):
        fid = func.id
        if fid in tables.from_time:
            return KIND_WALL_CLOCK, f"{fid}()"
        if fid in tables.from_os:
            return KIND_ENTROPY, f"os.{tables.from_os[fid]}()"
        if fid in tables.from_uuid:
            return KIND_ENTROPY, f"uuid.{tables.from_uuid[fid]}()"
        if fid in tables.from_secrets:
            return KIND_ENTROPY, f"secrets.{tables.from_secrets[fid]}()"
        orig = tables.from_random.get(fid)
        if orig is not None:
            if orig == "SystemRandom" or (orig == "Random" and unseeded):
                return KIND_ENTROPY, f"random.{orig}()"
            if orig not in _STDLIB_RNG_ALLOWED:
                return KIND_GLOBAL_RNG, f"random.{orig}()"
        nporig = tables.from_npr.get(fid)
        if nporig is not None:
            if nporig in _NP_GLOBAL_FNS:
                return KIND_GLOBAL_RNG, f"np.random.{nporig}()"
            if nporig in _UNSEEDED_CTORS and unseeded:
                return KIND_ENTROPY, f"np.random.{nporig}()"
    return None


def _sink_suppressed(ctx, kind: str, line: int) -> bool:
    for rule_id in ("SIM010",) + _KIND_BASE_RULES[kind]:
        if ctx.is_disabled(rule_id, line):
            return True
    return False


class TaintAnalysis:
    """Reaches-nondeterminism summaries for every corpus function."""

    def __init__(self, project) -> None:
        self.project = project
        #: (qualname, kind) -> Taint (shortest, deterministic witness).
        self.taints: dict[tuple[str, str], Taint] = {}
        self._run()

    def _direct_sinks(self) -> dict[str, list[Sink]]:
        sinks: dict[str, list[Sink]] = {}
        for name in sorted(self.project.modules):
            mod = self.project.modules[name]
            tables = _ModuleTables(mod.ctx.tree)
            path = str(mod.ctx.path)
            for node in mod.ctx.walk((ast.Call,)):
                hit = classify_sink(node, tables)
                if hit is None:
                    continue
                kind, desc = hit
                if _sink_suppressed(mod.ctx, kind, node.lineno):
                    continue
                owner = self.project.owner_of(mod, node)
                sinks.setdefault(owner, []).append(
                    Sink(kind=kind, desc=desc, node=node, path=path, line=node.lineno)
                )
        return sinks

    def _run(self) -> None:
        sinks = self._direct_sinks()
        reverse = self.project.reverse_calls()
        # Seed: functions with a direct sink (first sink of each kind wins).
        frontier: list[tuple[str, str]] = []
        for fn in sorted(sinks):
            for sink in sinks[fn]:
                key = (fn, sink.kind)
                if key in self.taints:
                    continue
                self.taints[key] = Taint(
                    kind=sink.kind, via=sink.node, next_hop=None, sink=sink, depth=0
                )
                frontier.append(key)
        # BFS up the reverse call graph: shortest chains, sorted order.
        while frontier:
            next_frontier: list[tuple[str, str]] = []
            for fn, kind in frontier:
                taint = self.taints[(fn, kind)]
                for site in reverse.get(fn, ()):
                    key = (site.caller, kind)
                    if key in self.taints:
                        continue
                    self.taints[key] = Taint(
                        kind=kind,
                        via=site.node,
                        next_hop=fn,
                        sink=taint.sink,
                        depth=taint.depth + 1,
                    )
                    next_frontier.append(key)
            frontier = sorted(next_frontier)

    # -- reporting helpers -------------------------------------------------
    def chain(self, qualname: str, kind: str) -> list[str]:
        """Witness call chain from ``qualname`` down to the sink holder."""
        out: list[str] = []
        cur: Optional[str] = qualname
        while cur is not None:
            out.append(cur)
            taint = self.taints.get((cur, kind))
            if taint is None:
                break
            cur = taint.next_hop
        return out


def short_name(qualname: str) -> str:
    """``repro.core.access:Access.run`` -> ``access.Access.run``."""
    module, _, fn = qualname.partition(":")
    return f"{module.rsplit('.', 1)[-1]}.{fn}"
