"""Seeded open-loop workload generation for the serving simulation.

Multi-tenant storage traffic is not Poisson-with-fixed-size: file sizes
are heavy-tailed (a few huge objects carry most of the bytes), arrival
rates swing with the day and spike in bursts, and a small set of hot
files takes a disproportionate share of requests (the warehouse-cluster
measurements of Rashmi et al. — see PAPERS.md).  This module generates
exactly that shape, fully vectorised and fully deterministic: every draw
comes from a named :class:`repro.sim.rng.RngHub` stream, so a million-
request trace is reproduced bit-for-bit from ``(spec, seed)`` in any
process (lint rule SIM001 keeps wall-clock and OS entropy out).

Open-loop means arrival times are fixed up front, independent of request
completions — the generator never lets an overloaded system throttle its
own offered load, which is precisely how overload behaviour (tail
latency, rejection) becomes measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs of one open-loop workload (scalars only — payload-encodable).

    Attributes
    ----------
    n_clients:
        Simulated client population; each client issues
        ``requests_per_client`` requests over the window.
    requests_per_client:
        Open-loop requests per client.
    duration_s:
        Simulated window the arrivals span.
    n_files:
        Catalogue size; requests pick files Zipf-skewed.
    zipf_s:
        Zipf exponent of the hot-key skew (0 = uniform; ~1 = classic
        web-object skew).
    size_dist:
        ``pareto`` | ``lognormal`` | ``fixed`` file-size law.
    size_mean_mb:
        Target mean file size (the distribution is scaled to hit it).
    size_alpha:
        Pareto tail index (heavier tail as it approaches 1).
    size_sigma:
        Lognormal shape parameter.
    size_min_mb / size_max_mb:
        Clip bounds on drawn sizes.
    diurnal_amplitude:
        Fraction of rate swing over a day-cycle (0 disables; 0.5 means
        the rate oscillates ±50 % around its base).
    diurnal_period_s:
        Length of one diurnal cycle in simulated seconds.
    burst_factor:
        Rate multiplier inside burst windows (1.0 disables bursts).
    burst_fraction:
        Fraction of the window covered by bursts.
    n_bursts:
        Number of burst windows placed over the duration.
    """

    n_clients: int = 1000
    requests_per_client: int = 1
    duration_s: float = 600.0
    n_files: int = 4096
    zipf_s: float = 0.9
    size_dist: str = "pareto"
    size_mean_mb: float = 16.0
    size_alpha: float = 1.8
    size_sigma: float = 1.5
    size_min_mb: float = 1.0
    size_max_mb: float = 1024.0
    diurnal_amplitude: float = 0.4
    diurnal_period_s: float = 600.0
    burst_factor: float = 3.0
    burst_fraction: float = 0.1
    n_bursts: int = 4

    def __post_init__(self) -> None:
        if self.n_clients < 1 or self.requests_per_client < 1:
            raise ValueError("need at least one client and one request each")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.n_files < 1:
            raise ValueError("need at least one file")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be >= 0")
        if self.size_dist not in ("pareto", "lognormal", "fixed"):
            raise ValueError(f"unknown size_dist {self.size_dist!r}")
        if not 0 < self.size_min_mb <= self.size_max_mb:
            raise ValueError("need 0 < size_min_mb <= size_max_mb")
        if self.diurnal_amplitude < 0 or self.diurnal_amplitude >= 1:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        if not 0 <= self.burst_fraction < 1:
            raise ValueError("burst_fraction must be in [0, 1)")

    @property
    def total_requests(self) -> int:
        return self.n_clients * self.requests_per_client

    def to_jsonable(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class RequestBatch:
    """One generated trace: parallel arrays, sorted by arrival time."""

    arrival_s: np.ndarray  #: float64, non-decreasing, within [0, duration)
    client_id: np.ndarray  #: int64
    file_id: np.ndarray  #: int64 into the catalogue
    size_bytes: np.ndarray  #: int64

    def __len__(self) -> int:
        return int(self.arrival_s.size)

    @property
    def total_bytes(self) -> int:
        return int(self.size_bytes.sum())


def _rate_profile(spec: WorkloadSpec, t: np.ndarray, rng) -> np.ndarray:
    """Relative arrival intensity at times ``t`` (diurnal x bursts)."""
    rate = np.ones_like(t)
    if spec.diurnal_amplitude > 0:
        rate *= 1.0 + spec.diurnal_amplitude * np.sin(
            2.0 * np.pi * t / spec.diurnal_period_s
        )
    if spec.burst_factor > 1.0 and spec.burst_fraction > 0 and spec.n_bursts > 0:
        width = spec.burst_fraction * spec.duration_s / spec.n_bursts
        starts = np.sort(
            rng.uniform(0.0, spec.duration_s - width, size=spec.n_bursts)
        )
        in_burst = np.zeros_like(t, dtype=bool)
        for s in starts:
            in_burst |= (t >= s) & (t < s + width)
        rate = np.where(in_burst, rate * spec.burst_factor, rate)
    return rate


def _arrival_times(spec: WorkloadSpec, rng) -> np.ndarray:
    """Draw ``total_requests`` arrivals with density ∝ the rate profile.

    Inverse-CDF sampling on a discretised cumulative intensity: exact
    request count (open-loop sweeps need predictable size), fully
    vectorised, deterministic given the stream.
    """
    n = spec.total_requests
    grid = np.linspace(0.0, spec.duration_s, 4096)
    rate = _rate_profile(spec, grid, rng)
    cum = np.concatenate([[0.0], np.cumsum((rate[1:] + rate[:-1]) * 0.5)])
    cum /= cum[-1]
    u = np.sort(rng.random(n))
    return np.interp(u, cum, grid)


def _sizes(spec: WorkloadSpec, n: int, rng) -> np.ndarray:
    """Heavy-tailed per-request sizes in bytes, clipped and mean-scaled."""
    mb = float(2**20)
    if spec.size_dist == "fixed":
        sizes = np.full(n, spec.size_mean_mb)
    elif spec.size_dist == "pareto":
        # Pareto with tail index alpha and unit scale; shift to mean 1.
        draws = 1.0 + rng.pareto(spec.size_alpha, size=n)
        mean = (
            spec.size_alpha / (spec.size_alpha - 1.0)
            if spec.size_alpha > 1.0
            else 10.0  # infinite-mean regime: scale by a nominal factor
        )
        sizes = spec.size_mean_mb * draws / mean
    else:  # lognormal
        # mean of lognormal(mu, sigma) is exp(mu + sigma^2/2); pick mu so
        # the configured mean comes out exactly.
        mu = np.log(spec.size_mean_mb) - spec.size_sigma**2 / 2.0
        sizes = rng.lognormal(mu, spec.size_sigma, size=n)
    sizes = np.clip(sizes, spec.size_min_mb, spec.size_max_mb)
    return np.maximum(1, (sizes * mb).astype(np.int64))


def _file_ids(spec: WorkloadSpec, n: int, rng) -> np.ndarray:
    """Zipf-skewed catalogue picks: rank r drawn ∝ 1 / (r+1)^s."""
    if spec.zipf_s == 0.0:
        return rng.integers(0, spec.n_files, size=n, dtype=np.int64)
    ranks = np.arange(1, spec.n_files + 1, dtype=float)
    pmf = ranks**-spec.zipf_s
    pmf /= pmf.sum()
    # Inverse-CDF instead of rng.choice: O(n log n_files) and exact.  The
    # summed pmf can fall short of 1.0 by an ulp; pin the last edge so a
    # draw above the rounded total still lands on the last rank.
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(n), side="left").astype(np.int64)


def generate(spec: WorkloadSpec, hub) -> RequestBatch:
    """Generate the full open-loop trace for ``spec`` off ``hub``'s streams.

    Each aspect of the workload draws from its own named stream, so e.g.
    turning the diurnal cycle off never perturbs the size draws.
    """
    n = spec.total_requests
    arrival = _arrival_times(spec, hub.stream("serve", "arrivals"))
    sizes = _sizes(spec, n, hub.stream("serve", "sizes"))
    files = _file_ids(spec, n, hub.stream("serve", "files"))
    clients = hub.stream("serve", "clients").integers(
        0, spec.n_clients, size=n, dtype=np.int64
    )
    return RequestBatch(
        arrival_s=arrival,
        client_id=clients,
        file_id=files,
        size_bytes=sizes,
    )
