"""Aggregation of per-access results into the paper's three metrics.

§6.2.3: *variation of access latency* (standard deviation over the trial
set), *access bandwidth* (data size / latency, averaged) and *I/O overhead*
((network bytes - data bytes) / data bytes, averaged).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accesscore.result import AccessResult
from repro.accesscore.routing import MB


@dataclass(frozen=True)
class MetricSummary:
    """Aggregate metrics over a set of access trials."""

    n_trials: int
    bandwidth_mbps: float
    bandwidth_std_mbps: float
    latency_mean_s: float
    latency_std_s: float
    io_overhead: float
    reception_overhead: float | None = None
    #: Trials whose access never completed (infinite latency) — excluded
    #: from the means above but reported explicitly rather than silently
    #: folded into an ``io_overhead=nan``.
    failed_trials: int = 0


class FixedBinHistogram:
    """Streaming percentile estimation in O(bins) memory.

    Log-spaced fixed bins over ``[lo, hi]``: adding a sample costs one
    ``searchsorted``, and a million samples hold the same memory as ten.
    :meth:`percentile` returns the *upper edge* of the bin where the
    cumulative count crosses the rank — a deterministic, conservative
    (never under-reporting) estimate whose relative error is bounded by
    the bin width (``(hi/lo)**(1/bins) - 1``, ~1.7 % at the defaults).

    Samples below ``lo`` clamp into the first bin; samples above ``hi``
    land in a dedicated overflow bin whose "edge" is ``inf`` —
    a tail percentile inside the overflow is reported as ``inf`` rather
    than silently truncated to ``hi``.
    """

    def __init__(self, lo: float = 1e-3, hi: float = 1e4, bins: int = 800) -> None:
        if not (0 < lo < hi):
            raise ValueError("need 0 < lo < hi")
        if bins < 1:
            raise ValueError("need at least one bin")
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins = int(bins)
        #: Bin upper edges, log-spaced; one extra overflow bin at +inf.
        self.edges = np.concatenate(
            [np.geomspace(lo, hi, bins + 1)[1:], [np.inf]]
        )
        self.counts = np.zeros(self.bins + 1, dtype=np.int64)
        self.n = 0

    def add(self, value: float) -> None:
        self.add_many([value])

    def add_many(self, values) -> None:
        """Bin a batch of samples (vectorised)."""
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        if not np.isfinite(arr).all():
            raise ValueError("histogram samples must be finite")
        idx = np.searchsorted(self.edges, arr, side="left")
        self.counts += np.bincount(idx, minlength=self.counts.size)
        self.n += arr.size

    def percentile(self, q: float) -> float:
        """Upper edge of the bin holding the ``q``-th percentile sample."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.n == 0:
            raise ValueError("percentile of an empty histogram")
        # Rank of the order statistic numpy's `lower` method would pick.
        rank = int(np.ceil(q / 100.0 * self.n))
        cum = np.cumsum(self.counts)
        idx = int(np.searchsorted(cum, max(1, rank), side="left"))
        return float(self.edges[idx])

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)


def summarize(results: list[AccessResult]) -> MetricSummary:
    """Reduce access trials to the paper's metrics.

    Accesses that never completed (infinite latency — e.g. insufficient
    redundancy) are excluded from latency/bandwidth means but still noted
    via the trial count.
    """
    if not results:
        raise ValueError("no results to summarise")
    lat = np.array([r.latency_s for r in results])
    finite = np.isfinite(lat)
    if not finite.any():
        return MetricSummary(
            n_trials=len(results),
            bandwidth_mbps=0.0,
            bandwidth_std_mbps=0.0,
            latency_mean_s=float("inf"),
            latency_std_s=float("inf"),
            io_overhead=float("nan"),
            failed_trials=len(results),
        )
    ok = [r for r, f in zip(results, finite) if f]
    bw = np.array([r.bandwidth_bps for r in ok]) / MB
    lat_ok = lat[finite]
    io = np.array([r.io_overhead for r in ok])
    rec = [r.extra.get("reception_overhead") for r in ok]
    rec_vals = [x for x in rec if x is not None]
    return MetricSummary(
        n_trials=len(results),
        bandwidth_mbps=float(bw.mean()),
        bandwidth_std_mbps=float(bw.std()),
        latency_mean_s=float(lat_ok.mean()),
        latency_std_s=float(lat_ok.std()),
        io_overhead=float(io.mean()),
        reception_overhead=float(np.mean(rec_vals)) if rec_vals else None,
        failed_trials=int(len(results) - finite.sum()),
    )
