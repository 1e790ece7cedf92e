"""``repro.obs`` — event tracing and instrumentation for the simulator.

A :class:`Tracer` collects spans, point events, counter samples and
aggregate counters keyed on *simulated* time.  It reaches the simulator
one way, as ``cluster.tracer``: the schemes and the access core, the
filers, the metadata server and the fault plan record through it, under
either engine.  The default :data:`NULL_TRACER` records nothing: every
site checks its ``enabled`` flag first, so instrumentation costs one
attribute read when tracing is off.

Capture a trace from the CLI::

    python -m repro.experiments fig6_06 --trace out.json

and load ``out.json`` in ``chrome://tracing`` / Perfetto, or pretty-print
the aggregate report::

    python -m repro.obs.report out.json

See ``docs/observability.md`` for the full tour.
"""

from repro.obs.tracer import (
    NULL_TRACER,
    CounterSample,
    InstantRecord,
    NullTracer,
    SpanRecord,
    Tracer,
    current_tracer,
    use_tracer,
)

_REPORT_EXPORTS = ("TraceReport", "load_trace")


def __getattr__(name):
    # Lazy so `python -m repro.obs.report` doesn't re-import its own
    # module through the package (runpy would warn).
    if name in _REPORT_EXPORTS:
        from repro.obs import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanRecord",
    "InstantRecord",
    "CounterSample",
    "current_tracer",
    "use_tracer",
    "TraceReport",
    "load_trace",
]
