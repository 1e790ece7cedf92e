"""Aggregated view of a trace: per-stage time, histograms, byte accounting.

Build a :class:`TraceReport` straight from a live :class:`~repro.obs.Tracer`
or from an exported Chrome trace file::

    python -m repro.obs.report out.json

The byte accounting reconciles with the endpoint metrics: for a read run,
``consumed + cancelled == network`` and ``(network - data) / data`` equals
the mean-free ``io_overhead`` aggregate of the same trials.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Mapping


def _histogram(values) -> dict[int, int]:
    """Integer-bucket histogram of counter sample values."""
    return dict(sorted(Counter(int(v) for v in values).items()))


@dataclass
class TraceReport:
    """Everything the trace says, reduced to aggregates.

    Attributes
    ----------
    stage_time:
        Category -> total span-seconds (how much simulated time each layer
        accounts for, summed over overlapping spans).
    name_time:
        Span name -> (total seconds, count).
    counters:
        Monotonic aggregate counters (cancellations, cache hits, ...).
    bytes:
        The byte-flow ledger: ``network``, ``consumed``, ``data``.
    queue_depth_hist / inflight_hist:
        Histograms of the sampled queue-depth / in-flight counters.
    job_spans:
        ``(name, start_s, dur_s)`` per execution-engine job span
        (category ``exec``) in timeline order — where each scheduled
        ``(plan, scheme)`` cell sits on the global DES timeline.
    """

    stage_time: dict[str, float] = field(default_factory=dict)
    stage_spans: dict[str, int] = field(default_factory=dict)
    name_time: dict[str, tuple[float, int]] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    bytes: dict[str, int] = field(default_factory=dict)
    queue_depth_hist: dict[int, int] = field(default_factory=dict)
    inflight_hist: dict[int, int] = field(default_factory=dict)
    job_spans: list[tuple[str, float, float]] = field(default_factory=list)
    n_instants: int = 0
    span_end_s: float = 0.0

    # -- byte accounting -------------------------------------------------------
    @property
    def network_bytes(self) -> int:
        """Bytes that crossed a client link (payloads sent by filers)."""
        return int(self.bytes.get("network", 0))

    @property
    def consumed_bytes(self) -> int:
        """Bytes the client actually consumed to complete its accesses."""
        return int(self.bytes.get("consumed", 0))

    @property
    def data_bytes(self) -> int:
        """Original data bytes the accesses asked for."""
        return int(self.bytes.get("data", 0))

    @property
    def cancelled_bytes(self) -> int:
        """Bytes transferred but never needed: sent blocks the client had
        cancelled or no longer wanted when they arrived."""
        return self.network_bytes - self.consumed_bytes

    @property
    def io_overhead(self) -> float:
        """(network - data) / data — must reconcile with the endpoint
        :attr:`repro.accesscore.result.AccessResult.io_overhead` figures."""
        if not self.data_bytes:
            return 0.0
        return (self.network_bytes - self.data_bytes) / self.data_bytes

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_tracer(cls, tracer) -> "TraceReport":
        rep = cls(counters=dict(tracer.counters), bytes=dict(tracer.bytes_ledger))
        stage_t: dict[str, float] = defaultdict(float)
        stage_n: dict[str, int] = defaultdict(int)
        name_t: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for s in tracer.spans:
            stage_t[s.cat] += s.dur
            stage_n[s.cat] += 1
            acc = name_t[s.name]
            acc[0] += s.dur
            acc[1] += 1
            rep.span_end_s = max(rep.span_end_s, s.end)
            if s.cat == "exec":
                rep.job_spans.append((s.name, s.ts, s.dur))
        rep.stage_time = dict(stage_t)
        rep.stage_spans = dict(stage_n)
        rep.name_time = {k: (v[0], v[1]) for k, v in name_t.items()}
        rep.n_instants = len(tracer.instants)
        depth, inflight = [], []
        for c in tracer.counter_samples:
            if "queue_depth" in c.name:
                depth.append(c.value)
            elif "inflight" in c.name:
                inflight.append(c.value)
        rep.queue_depth_hist = _histogram(depth)
        rep.inflight_hist = _histogram(inflight)
        return rep

    @classmethod
    def from_chrome(cls, trace: Mapping) -> "TraceReport":
        """Rebuild the report from an exported Chrome trace object."""
        rep = cls()
        stage_t: dict[str, float] = defaultdict(float)
        stage_n: dict[str, int] = defaultdict(int)
        name_t: dict[str, list] = defaultdict(lambda: [0.0, 0])
        depth, inflight = [], []
        for ev in trace.get("traceEvents", []):
            ph = ev.get("ph")
            if ph == "M":
                if ev.get("name") == "obs_totals":
                    args = ev.get("args", {})
                    rep.counters = dict(args.get("counters", {}))
                    rep.bytes = {k: int(v) for k, v in args.get("bytes", {}).items()}
            elif ph == "X":
                dur = float(ev.get("dur", 0.0)) / 1e6
                cat = ev.get("cat", "")
                stage_t[cat] += dur
                stage_n[cat] += 1
                acc = name_t[ev["name"]]
                acc[0] += dur
                acc[1] += 1
                start = float(ev["ts"]) / 1e6
                rep.span_end_s = max(rep.span_end_s, start + dur)
                if cat == "exec":
                    rep.job_spans.append((ev["name"], start, dur))
            elif ph == "i":
                rep.n_instants += 1
            elif ph == "C":
                value = ev.get("args", {}).get("value", 0.0)
                if "queue_depth" in ev["name"]:
                    depth.append(value)
                elif "inflight" in ev["name"]:
                    inflight.append(value)
        rep.stage_time = dict(stage_t)
        rep.stage_spans = dict(stage_n)
        rep.name_time = {k: (v[0], v[1]) for k, v in name_t.items()}
        rep.queue_depth_hist = _histogram(depth)
        rep.inflight_hist = _histogram(inflight)
        rep.job_spans.sort(key=lambda js: js[1])
        return rep

    # -- rendering -------------------------------------------------------------
    def render(self) -> str:
        """Human-readable multi-section summary."""
        lines = ["trace report", "============"]
        lines.append(f"timeline end: {self.span_end_s:.3f} s simulated")

        if self.stage_time:
            lines += ["", "per-stage time (span-seconds, overlapping):"]
            width = max(len(k) for k in self.stage_time)
            for cat in sorted(self.stage_time, key=self.stage_time.get, reverse=True):
                lines.append(
                    f"  {cat:<{width}}  {self.stage_time[cat]:12.3f} s"
                    f"  ({self.stage_spans[cat]} spans)"
                )

        if self.job_spans:
            lines += ["", "exec jobs (global timeline):"]
            width = max(len(name) for name, _s, _d in self.job_spans)
            for name, start, dur in self.job_spans:
                lines.append(
                    f"  {name:<{width}}  [{start:10.3f} .. {start + dur:10.3f}] s"
                    f"  ({dur:.3f} s)"
                )

        if self.name_time:
            lines += ["", "top spans by total time:"]
            top = sorted(self.name_time.items(), key=lambda kv: -kv[1][0])[:12]
            width = max(len(k) for k, _ in top)
            for name, (total, n) in top:
                lines.append(f"  {name:<{width}}  {total:12.3f} s  x{n}")

        if self.bytes:
            lines += ["", "byte accounting:"]
            for k in sorted(self.bytes):
                lines.append(f"  {k:<12} {self.bytes[k]:>16,d} B")
            lines.append(f"  {'cancelled':<12} {self.cancelled_bytes:>16,d} B")
            lines.append(f"  io_overhead  {self.io_overhead:16.3f}")

        for title, hist in (
            ("queue depth", self.queue_depth_hist),
            ("in-flight", self.inflight_hist),
        ):
            if hist:
                peak = max(hist.values())
                lines += ["", f"{title} histogram:"]
                for bucket in sorted(hist):
                    bar = "#" * max(1, round(30 * hist[bucket] / peak))
                    lines.append(f"  {bucket:>6} | {bar} {hist[bucket]}")

        if self.counters:
            lines += ["", "counters:"]
            width = max(len(k) for k in self.counters)
            for k in sorted(self.counters):
                lines.append(f"  {k:<{width}}  {self.counters[k]:,.0f}")
        return "\n".join(lines)


def load_trace(path: str) -> TraceReport:
    """Read a Chrome trace file and aggregate it."""
    with open(path) as fh:
        return TraceReport.from_chrome(json.load(fh))


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.obs.report",
        description="Pretty-print the aggregate report of a captured trace.",
    )
    parser.add_argument("trace", help="Chrome trace-event JSON file (--trace output)")
    args = parser.parse_args(argv)
    try:
        report = load_trace(args.trace)
    except OSError as exc:
        parser.error(f"cannot read trace: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"{args.trace} is not valid trace JSON: {exc}")
    print(report.render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
