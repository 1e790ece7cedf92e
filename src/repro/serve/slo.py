"""Streaming SLO-grade metrics for the serving simulation.

Mean bandwidth is the wrong lens for a multi-tenant service: designs
differentiate in the tail (p99/p999 latency), in what they still deliver
under overload (goodput), and in how often they have to say no
(rejection rate).  This module accumulates those in memory independent
of the request count — latency goes into a :class:`repro.metrics.stats.
FixedBinHistogram`, so a 10⁶-request sweep holds a few kilobytes, not a
million floats.  Requests arrive in batches (:meth:`SloTracker.record`),
so the per-request cost is a share of a few array operations.

:class:`ServeReport` is the canonical, JSON-round-trippable result of
one serving cell — the byte-identity currency the executor caches and
the experiment renders.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.metrics.stats import FixedBinHistogram

MB = 1 << 20


class SloTracker:
    """Accumulates one serving run's SLO metrics, streaming.

    Parameters
    ----------
    duration_s:
        The workload window; goodput normalises served bytes over it.
    slo_latency_s:
        The latency objective: completed requests at or under it count
        toward goodput, slower ones count as SLO misses.
    """

    def __init__(self, duration_s: float, slo_latency_s: float) -> None:
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if slo_latency_s <= 0:
            raise ValueError("slo_latency_s must be positive")
        self.duration_s = float(duration_s)
        self.slo_latency_s = float(slo_latency_s)
        self.hist = FixedBinHistogram()
        self.offered = 0
        self.rejected = 0
        self.failovers = 0
        self.bytes_offered = 0
        self.bytes_good = 0
        self.slo_misses = 0

    def record(self, latency_s, size_bytes, admitted, failover) -> None:
        """Record a batch of offered requests (parallel sequences).

        ``admitted[i]`` says whether request ``i`` was admitted and
        completed; its ``latency_s[i]`` and ``failover[i]`` count only
        then.  A rejected request contributes its bytes to the offered
        load and nothing else.
        """
        ok = np.asarray(admitted, dtype=bool)
        size = np.asarray(size_bytes, dtype=np.int64)
        served = np.asarray(latency_s, dtype=float)[ok]
        # Bin first: a non-finite latency raises before any count moves.
        self.hist.add_many(served)
        good = served <= self.slo_latency_s
        n_ok = int(np.count_nonzero(ok))
        self.offered += int(size.size)
        self.rejected += int(size.size) - n_ok
        self.failovers += int(np.count_nonzero(np.asarray(failover, dtype=bool) & ok))
        self.bytes_offered += int(size.sum())
        self.bytes_good += int(size[ok][good].sum())
        self.slo_misses += n_ok - int(np.count_nonzero(good))

    def admit(self, latency_s: float, size_bytes: int, failover: bool) -> None:
        """Record one admitted, completed request."""
        self.record([latency_s], [size_bytes], [True], [failover])

    def reject(self, size_bytes: int) -> None:
        """Record one request refused at admission (graceful rejection)."""
        self.record([0.0], [size_bytes], [False], [False])

    def report(self, scheme: str, n_clients: int) -> "ServeReport":
        admitted = self.offered - self.rejected
        return ServeReport(
            scheme=scheme,
            n_clients=int(n_clients),
            offered=self.offered,
            admitted=admitted,
            rejected=self.rejected,
            failovers=self.failovers,
            slo_misses=self.slo_misses,
            p50_s=self.hist.p50 if admitted else float("inf"),
            p99_s=self.hist.p99 if admitted else float("inf"),
            p999_s=self.hist.p999 if admitted else float("inf"),
            goodput_mbps=self.bytes_good / MB / self.duration_s,
            offered_mbps=self.bytes_offered / MB / self.duration_s,
            rejection_rate=self.rejected / self.offered if self.offered else 0.0,
        )


@dataclass(frozen=True)
class ServeReport:
    """SLO metrics of one ``(scheme, client count)`` serving cell."""

    scheme: str
    n_clients: int
    offered: int
    admitted: int
    rejected: int
    failovers: int
    slo_misses: int
    p50_s: float
    p99_s: float
    p999_s: float
    goodput_mbps: float
    offered_mbps: float
    rejection_rate: float

    def row(self) -> dict:
        """Table row for :func:`repro.metrics.reporting.format_table`."""

        def _r(v: float, nd: int) -> float | str:
            return "inf" if v == float("inf") else round(v, nd)

        return {
            "scheme": self.scheme,
            "clients": self.n_clients,
            "offered": self.offered,
            "rejected": self.rejected,
            "rej_rate": round(self.rejection_rate, 4),
            "failover": self.failovers,
            "p50_s": _r(self.p50_s, 3),
            "p99_s": _r(self.p99_s, 3),
            "p999_s": _r(self.p999_s, 3),
            "goodput_MBps": round(self.goodput_mbps, 2),
            "offered_MBps": round(self.offered_mbps, 2),
        }

    def to_jsonable(self) -> dict:
        """Lossless JSON form; the serving golden and digests pin its ``kind`` tag."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["kind"] = "serve"
        return out

    @classmethod
    def from_jsonable(cls, data: dict) -> "ServeReport":
        data = {k: v for k, v in data.items() if k != "kind"}
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown ServeReport fields: {sorted(unknown)}")
        return cls(**data)
