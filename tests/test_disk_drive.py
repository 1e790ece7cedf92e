"""Tests for the event-driven disk drive and workloads."""

import numpy as np
import pytest

from repro.disk.drive import DiskDrive, DiskRequest
from repro.disk.mechanics import DiskMechanics
from repro.disk.workload import (
    BackgroundWorkload,
    InDiskLayout,
    SyntheticWorkload,
    draw_layout,
    homogeneous_layout,
)
from repro.sim import Environment


def make_drive(env, seed=0, **kw):
    return DiskDrive(env, DiskMechanics(), np.random.default_rng(seed), **kw)


class TestWorkloads:
    def test_draw_layout_domain(self):
        rng = np.random.default_rng(0)
        seen_bf, seen_seq = set(), set()
        for _ in range(200):
            lay = draw_layout(rng)
            seen_bf.add(lay.blocking_factor)
            seen_seq.add(lay.p_sequential)
        assert seen_bf <= {8, 16, 32, 64, 128, 256, 512, 1024}
        assert len(seen_bf) >= 6
        assert seen_seq == {0.0, 1.0}

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            InDiskLayout(0, 0.5)
        with pytest.raises(ValueError):
            InDiskLayout(8, 1.5)

    def test_homogeneous_layout(self):
        lay = homogeneous_layout()
        assert lay.blocking_factor == 256 and lay.p_sequential == 1.0

    def test_synthetic_stream_covers_total(self):
        rng = np.random.default_rng(1)
        wl = SyntheticWorkload(InDiskLayout(64, 0.5), 0, 100_000, rng)
        reqs = list(wl.requests(1000))
        assert sum(r.sectors for r in reqs) == 1000
        assert all(r.sectors <= 64 for r in reqs)
        assert all(0 <= r.lba and r.lba + r.sectors <= 100_000 for r in reqs)

    def test_sequential_stream_is_contiguous(self):
        rng = np.random.default_rng(2)
        wl = SyntheticWorkload(InDiskLayout(32, 1.0), 0, 1_000_000, rng)
        reqs = list(wl.requests(320))
        for a, b in zip(reqs, reqs[1:]):
            assert b.lba == a.lba + a.sectors

    def test_random_stream_never_sequential(self):
        rng = np.random.default_rng(3)
        wl = SyntheticWorkload(InDiskLayout(32, 0.0), 0, 1_000_000, rng)
        reqs = list(wl.requests(320))
        assert not any(r.sequential for r in reqs[1:])

    def test_extent_too_small(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            SyntheticWorkload(InDiskLayout(64, 0.0), 0, 32, rng)

    def test_background_disabled(self):
        rng = np.random.default_rng(6)
        bg = BackgroundWorkload(None, rng)
        assert not bg.enabled

    def test_background_invalid_interval(self):
        with pytest.raises(ValueError):
            BackgroundWorkload(0.0, np.random.default_rng(0))


class TestDrive:
    def test_single_request_completes(self):
        env = Environment()
        drive = make_drive(env)
        req = drive.read(lba=1000, sectors=64)
        env.run(until=req.done)
        assert env.now > 0
        assert drive.served_requests == 1
        assert drive.served_bytes == 64 * 512

    def test_fifo_service_order(self):
        env = Environment()
        drive = make_drive(env)
        r1 = drive.read(0, 64)
        r2 = drive.read(500_000, 64)
        env.run()
        assert r1.done.value < r2.done.value

    def test_sequential_requests_faster_than_scattered(self):
        env1 = Environment()
        d1 = make_drive(env1, seed=1)
        seq_reqs = [d1.read(i * 64, 64) for i in range(20)]
        env1.run()
        seq_time = max(r.done.value for r in seq_reqs)

        env2 = Environment()
        d2 = make_drive(env2, seed=1)
        rng = np.random.default_rng(7)
        scat = [d2.read(int(rng.integers(0, 10_000_000)), 64) for _ in range(20)]
        env2.run()
        scat_time = max(r.done.value for r in scat)
        assert seq_time < scat_time / 3

    def test_cancellation_removes_queued(self):
        env = Environment()
        drive = make_drive(env)
        keep = drive.submit(DiskRequest(lba=0, sectors=64, tag="keep"))
        drop = [drive.submit(DiskRequest(lba=i * 100_000, sectors=64, tag="drop")) for i in range(5)]
        n = drive.cancel(lambda r: r.tag == "drop")
        assert n >= 4  # the first may already be in service
        env.run()
        assert keep.done.value is not None
        cancelled = [r for r in drop if r.done.value is None]
        assert len(cancelled) == n

    def test_background_consumes_disk_time(self):
        env = Environment()
        drive = make_drive(env)
        rng = np.random.default_rng(8)
        drive.attach_background(BackgroundWorkload(0.01, rng))
        env.run(until=2.0)
        assert drive.served_requests > 100
        assert 0.2 < drive.busy_time / env.now <= 1.0
