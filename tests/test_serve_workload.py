"""Tests for the seeded open-loop workload generator.

Determinism (bit-identical traces from the same hub seed), the shape
properties the serving model depends on (sorted arrivals, heavy-tailed
sizes, Zipf hot keys, burst/diurnal rate variation), and the spec's
validation and payload round-trip.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.workload import RequestBatch, WorkloadSpec, _file_ids, generate
from repro.sim.rng import RngHub


def batch(seed=0, **kwargs) -> RequestBatch:
    return generate(WorkloadSpec(**kwargs), RngHub(seed))


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_bit_identical():
    a = batch(seed=7, n_clients=500)
    b = batch(seed=7, n_clients=500)
    for name in ("arrival_s", "client_id", "file_id", "size_bytes"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_different_seed_differs():
    a = batch(seed=1, n_clients=500)
    b = batch(seed=2, n_clients=500)
    assert not np.array_equal(a.size_bytes, b.size_bytes)


def test_streams_are_independent():
    # Disabling the diurnal cycle perturbs only the arrival draws.
    base = batch(seed=3, n_clients=400)
    flat = batch(seed=3, n_clients=400, diurnal_amplitude=0.0)
    np.testing.assert_array_equal(base.size_bytes, flat.size_bytes)
    np.testing.assert_array_equal(base.file_id, flat.file_id)
    assert not np.array_equal(base.arrival_s, flat.arrival_s)


# ---------------------------------------------------------------------------
# trace shape


def test_trace_shape_and_bounds():
    spec = WorkloadSpec(n_clients=300, requests_per_client=2, duration_s=100.0)
    b = generate(spec, RngHub(0))
    assert len(b) == spec.total_requests == 600
    assert np.all(np.diff(b.arrival_s) >= 0)
    assert b.arrival_s[0] >= 0 and b.arrival_s[-1] <= spec.duration_s
    assert b.client_id.min() >= 0 and b.client_id.max() < spec.n_clients
    assert b.file_id.min() >= 0 and b.file_id.max() < spec.n_files
    assert b.size_bytes.min() >= spec.size_min_mb * 2**20
    assert b.size_bytes.max() <= spec.size_max_mb * 2**20
    assert b.total_bytes == int(b.size_bytes.sum())


def test_pareto_sizes_are_heavy_tailed():
    b = batch(n_clients=5000, size_dist="pareto", size_max_mb=4096.0)
    sizes = b.size_bytes.astype(float)
    # Heavy tail: the top percentile carries far more than its share.
    top = np.sort(sizes)[-len(sizes) // 100 :]
    assert top.sum() / sizes.sum() > 0.05
    assert sizes.max() / np.median(sizes) > 10


def test_lognormal_and_fixed_sizes():
    ln = batch(n_clients=5000, size_dist="lognormal", size_max_mb=4096.0)
    mean_mb = ln.size_bytes.mean() / 2**20
    assert 8.0 < mean_mb < 32.0  # clipping pulls the exact mean around 16
    fx = batch(n_clients=100, size_dist="fixed")
    assert np.all(fx.size_bytes == 16 * 2**20)


def test_zipf_hot_keys():
    b = batch(n_clients=20_000, zipf_s=1.1, n_files=1024)
    counts = np.bincount(b.file_id, minlength=1024)
    uniform_share = len(b) / 1024
    assert counts[0] > 5 * uniform_share  # rank-0 file is hot
    assert counts[0] >= counts[512]  # and hotter than mid-rank
    uni = batch(n_clients=20_000, zipf_s=0.0, n_files=1024)
    ucounts = np.bincount(uni.file_id, minlength=1024)
    assert ucounts.max() < 3 * uniform_share


class _TopDraws:
    """An rng stub whose uniform draws all sit just below 1.0."""

    def random(self, n):
        return np.full(n, 1.0 - 2.0**-53)


@pytest.mark.parametrize("n_files", [1000, 4096, 10_000])
def test_zipf_top_draw_stays_in_catalogue(n_files):
    # The summed pmf rounds to just under 1.0 for some catalogue sizes;
    # the largest uniform draw must still map to the last file.
    spec = WorkloadSpec(n_files=n_files, zipf_s=0.9)
    ids = _file_ids(spec, 3, _TopDraws())
    assert ids.tolist() == [n_files - 1] * 3


def test_bursts_concentrate_arrivals():
    calm = batch(
        n_clients=20_000, burst_factor=1.0, diurnal_amplitude=0.0
    )
    bursty = batch(
        n_clients=20_000, burst_factor=10.0, burst_fraction=0.1,
        diurnal_amplitude=0.0,
    )
    # Max arrivals in any 1/50th window: bursts pack far more than flat.
    def peak(b):
        hist, _ = np.histogram(b.arrival_s, bins=50, range=(0.0, 600.0))
        return hist.max()

    assert peak(bursty) > 1.5 * peak(calm)


# ---------------------------------------------------------------------------
# spec validation and payload round-trip


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_clients=0),
        dict(requests_per_client=0),
        dict(duration_s=0.0),
        dict(n_files=0),
        dict(zipf_s=-0.1),
        dict(size_dist="weibull"),
        dict(size_min_mb=0.0),
        dict(size_min_mb=8.0, size_max_mb=4.0),
        dict(diurnal_amplitude=1.0),
        dict(burst_factor=0.5),
        dict(burst_fraction=1.0),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        WorkloadSpec(**kwargs)
