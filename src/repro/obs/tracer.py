"""Tracer core: spans, point events and counters on the simulated clock.

All timestamps are *simulated seconds*.  A tracer carries an ``offset``
that is added to every recorded time, which the experiment harness uses to
lay successive trials (and successive scheme runs) out on one global
timeline instead of piling every access at t = 0.

Export is Chrome ``trace_event`` JSON (the array-of-events form inside a
``traceEvents`` object), loadable in ``chrome://tracing`` and Perfetto.
Times are converted to microseconds on export, as the format requires.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional

#: Chrome trace_event process id used for every event we emit.
TRACE_PID = 1


@dataclass(frozen=True)
class SpanRecord:
    """A closed interval of simulated time attributed to one stage."""

    name: str
    cat: str
    ts: float  # start, simulated seconds (offset already applied)
    dur: float  # duration, simulated seconds
    track: str
    args: Mapping[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.ts + self.dur


@dataclass(frozen=True)
class InstantRecord:
    """A point event."""

    name: str
    cat: str
    ts: float
    track: str
    args: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CounterSample:
    """One timed sample of a named quantity (queue depth, in-flight, ...)."""

    name: str
    ts: float
    value: float
    track: str


class NullTracer:
    """The tracer of an untraced run: it records nothing.

    Every instrumentation site checks ``enabled`` before it calls a record
    method or reads ``offset`` or ``detail``, so the no-op tracer needs
    nothing else and tracing off costs one attribute read per site.
    """

    enabled = False


#: Shared default instance — instrumented components hold a reference to
#: this when no real tracer is installed.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects the event stream of a simulation run.

    Parameters
    ----------
    detail:
        When True, instrumentation sites additionally emit per-block
        events (one span per served block instead of one per disk queue).
        Off by default — paper-scale runs move hundreds of thousands of
        blocks.
    """

    enabled = True

    def __init__(self, detail: bool = False) -> None:
        self.detail = bool(detail)
        #: Added to every recorded timestamp (global-timeline placement).
        self.offset = 0.0
        self._spans: list[SpanRecord] = []
        self._instants: list[InstantRecord] = []
        self._samples: list[CounterSample] = []
        self._counters: dict[str, float] = {}
        self._bytes: dict[str, int] = {}

    # -- recording -----------------------------------------------------------
    def span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        track: str | None = None,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record a complete span ``[start, end]`` (simulated seconds)."""
        off = self.offset
        self._spans.append(
            SpanRecord(
                name, cat, off + start, max(0.0, end - start), track or cat, args or {}
            )
        )

    def instant(
        self,
        name: str,
        cat: str,
        t: float,
        track: str | None = None,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record a point event at simulated time ``t``."""
        self._instants.append(
            InstantRecord(name, cat, self.offset + t, track or cat, args or {})
        )

    def counter(self, name: str, t: float, value: float, track: str | None = None) -> None:
        """Record one timed sample of a quantity (queue depth, in-flight)."""
        self._samples.append(
            CounterSample(name, self.offset + t, float(value), track or name)
        )

    def count(self, name: str, delta: float = 1) -> None:
        """Bump a monotonic aggregate counter (no timestamp).

        Deltas must be non-negative: these counters only ever grow, which
        the report and tests rely on.
        """
        if delta < 0:
            raise ValueError(f"counter {name!r}: negative delta {delta}")
        self._counters[name] = self._counters.get(name, 0) + delta

    def account_bytes(self, kind: str, nbytes: int) -> None:
        """Add ``nbytes`` to the byte-flow ledger under ``kind``.

        Kinds used by the built-in instrumentation: ``network`` (bytes that
        crossed a client link), ``consumed`` (bytes the client actually used
        to complete accesses) and ``data`` (original data bytes requested).
        """
        if nbytes < 0:
            raise ValueError(f"bytes ledger {kind!r}: negative amount {nbytes}")
        self._bytes[kind] = self._bytes.get(kind, 0) + int(nbytes)

    # -- queries -------------------------------------------------------------
    @property
    def spans(self) -> list[SpanRecord]:
        return list(self._spans)

    @property
    def instants(self) -> list[InstantRecord]:
        return list(self._instants)

    @property
    def counter_samples(self) -> list[CounterSample]:
        return list(self._samples)

    @property
    def counters(self) -> dict[str, float]:
        return dict(self._counters)

    @property
    def bytes_ledger(self) -> dict[str, int]:
        return dict(self._bytes)

    # -- Chrome trace_event export --------------------------------------------
    def to_chrome(self) -> dict:
        """The trace as a Chrome ``trace_event`` JSON object.

        Spans become complete (``"X"``) events, instants ``"i"`` events and
        counter samples ``"C"`` events; tracks map to thread ids with
        ``thread_name`` metadata.  Aggregate counters and the byte ledger
        travel in one ``obs_totals`` metadata event so a report can be
        rebuilt from the file alone.
        """
        tids: dict[str, int] = {}

        def tid(track: str) -> int:
            if track not in tids:
                tids[track] = len(tids) + 1
            return tids[track]

        def us(t: float) -> float:
            return round(t * 1e6, 3)

        events: list[dict] = []
        for s in self._spans:
            events.append(
                {
                    "name": s.name,
                    "cat": s.cat,
                    "ph": "X",
                    "pid": TRACE_PID,
                    "tid": tid(s.track),
                    "ts": us(s.ts),
                    "dur": us(s.dur),
                    "args": dict(s.args),
                }
            )
        for i in self._instants:
            events.append(
                {
                    "name": i.name,
                    "cat": i.cat,
                    "ph": "i",
                    "s": "t",
                    "pid": TRACE_PID,
                    "tid": tid(i.track),
                    "ts": us(i.ts),
                    "args": dict(i.args),
                }
            )
        for c in self._samples:
            events.append(
                {
                    "name": c.name,
                    "cat": "counter",
                    "ph": "C",
                    "pid": TRACE_PID,
                    "tid": tid(c.track),
                    "ts": us(c.ts),
                    "args": {"value": c.value},
                }
            )
        events.sort(key=lambda e: (e["ts"], e["tid"], e["name"]))
        meta: list[dict] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": t,
                "args": {"name": name},
            }
            for name, t in sorted(tids.items(), key=lambda kv: kv[1])
        ]
        meta.append(
            {
                "name": "obs_totals",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": 0,
                "args": {
                    "counters": {k: self._counters[k] for k in sorted(self._counters)},
                    "bytes": {k: self._bytes[k] for k in sorted(self._bytes)},
                },
            }
        )
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str) -> None:
        """Serialise :meth:`to_chrome` to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh, separators=(",", ":"))
            fh.write("\n")


# -- ambient tracer -----------------------------------------------------------
# The experiment registry exposes zero-argument callables, so the CLI
# installs the tracer ambiently; `run_scheme` picks it up as its default.
_ambient = threading.local()


def current_tracer() -> "Tracer | NullTracer":
    """The innermost tracer installed with :func:`use_tracer` (or the null)."""
    stack = getattr(_ambient, "stack", None)
    return stack[-1] if stack else NULL_TRACER


@contextmanager
def use_tracer(tracer: "Tracer | NullTracer") -> Iterator["Tracer | NullTracer"]:
    """Install ``tracer`` as the ambient default within the block."""
    stack = getattr(_ambient, "stack", None)
    if stack is None:
        stack = _ambient.stack = []
    stack.append(tracer)
    try:
        yield tracer
    finally:
        stack.pop()
