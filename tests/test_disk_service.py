"""Tests for the vectorised block service model, incl. cross-validation
against the event-driven drive."""

import numpy as np
import pytest

from repro.disk.drive import DiskDrive, DiskRequest
from repro.disk.mechanics import DiskMechanics
from repro.disk.service import BackgroundLoad, BlockService, served_before
from repro.disk.workload import InDiskLayout, SyntheticWorkload
from repro.sim import Environment

MB = 1 << 20


def make_service(bf=256, p_seq=1.0, seed=0, bg=None):
    mech = DiskMechanics()
    return BlockService(
        mech, InDiskLayout(bf, p_seq), spt=870, rng=np.random.default_rng(seed), background=bg
    )


class TestBlockServiceTimes:
    def test_shapes_and_positivity(self):
        svc = make_service()
        t = svc.block_service_times(32, 1 * MB)
        assert t.shape == (32,)
        assert np.all(t > 0)

    def test_empty(self):
        svc = make_service()
        assert svc.block_service_times(0, MB).size == 0

    def test_sequential_layout_faster(self):
        fast = make_service(bf=1024, p_seq=1.0, seed=1)
        slow = make_service(bf=8, p_seq=0.0, seed=1)
        t_fast = fast.block_service_times(16, MB).mean()
        t_slow = slow.block_service_times(16, MB).mean()
        assert t_slow > 20 * t_fast  # ~80x grid spread

    def test_standalone_bandwidth_sane(self):
        svc = make_service(bf=256, p_seq=1.0)
        bw = svc.standalone_bandwidth()
        assert 10 * MB < bw < 80 * MB

    def test_deterministic_per_seed(self):
        a = make_service(seed=3).block_service_times(8, MB)
        b = make_service(seed=3).block_service_times(8, MB)
        assert np.array_equal(a, b)


class TestCompletions:
    def test_no_background_is_cumsum(self):
        svc = make_service()
        s = np.array([0.1, 0.2, 0.3])
        c = svc.completions(s, start=1.0)
        assert np.allclose(c, [1.1, 1.3, 1.6])

    def test_background_delays_completions(self):
        quiet = make_service(seed=4)
        s = quiet.block_service_times(32, MB)
        base = quiet.completions(s, 0.0)

        loaded = make_service(seed=4, bg=BackgroundLoad(interval_s=0.02))
        c = loaded.completions(s, 0.0)
        assert np.all(c >= base - 1e-12)
        assert c[-1] > base[-1] * 1.1

    def test_heavier_background_delays_more(self):
        s = make_service(seed=5).block_service_times(32, MB)
        light = make_service(seed=5, bg=BackgroundLoad(0.1)).completions(s, 0.0)
        heavy = make_service(seed=5, bg=BackgroundLoad(0.008)).completions(s, 0.0)
        assert heavy[-1] > light[-1]

    def test_saturating_background_dilates_but_never_starves(self):
        """A fair drive caps background at one request per foreground
        request, so even an over-saturating stream only dilates (§6.3.2)."""
        svc = make_service(seed=6, bg=BackgroundLoad(interval_s=0.004))
        c = svc.completions(np.array([0.01, 0.01]), 0.0)
        assert np.all(np.isfinite(c))
        assert c[-1] > 0.02 * 1.5  # heavily dilated nonetheless

    def test_utilization_matches_paper_6ms(self):
        """6 ms interval ~= 93 % disk utilisation (§6.2.5)."""
        bg = BackgroundLoad(interval_s=0.006)
        mech = DiskMechanics()
        assert bg.utilization(mech, 870) == pytest.approx(0.93, abs=0.05)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            BackgroundLoad(interval_s=-1)


class TestServedBefore:
    def test_counts_in_flight_block(self):
        c = np.array([1.0, 2.0, 3.0])
        assert served_before(c, 0.5) == 1  # first block in flight
        assert served_before(c, 1.5) == 2
        assert served_before(c, 9.9) == 3

    def test_exact_boundary(self):
        c = np.array([1.0, 2.0])
        assert served_before(c, 1.0) == 2  # first done, second in flight

    def test_empty(self):
        assert served_before(np.array([]), 1.0) == 0


class TestCrossValidation:
    """The closed-form model agrees with the event-driven drive."""

    @pytest.mark.parametrize("bf,p_seq", [(64, 0.0), (256, 1.0)])
    def test_mean_bandwidth_matches_event_driven(self, bf, p_seq):
        mech = DiskMechanics()
        layout = InDiskLayout(bf, p_seq)
        total_sectors = 16 * MB // 512

        # Event-driven: run the synthetic request stream through DiskDrive.
        env = Environment()
        drive = DiskDrive(env, mech, np.random.default_rng(10))
        wl = SyntheticWorkload(layout, 0, 10_000_000, np.random.default_rng(11))
        reqs = []
        last = None
        for pat in wl.requests(total_sectors):
            lba = (last if pat.sequential and last is not None else pat.lba)
            reqs.append(drive.read(lba, pat.sectors))
            last = lba + pat.sectors
        env.run()
        event_time = max(r.done.value for r in reqs)

        # Closed form: same workload parameters, middle zone.
        svc = BlockService(mech, layout, spt=870, rng=np.random.default_rng(12))
        t = svc.block_service_times(16, MB)
        model_time = float(t.sum())

        assert model_time == pytest.approx(event_time, rel=0.35)

    def test_background_dilation_matches_event_driven(self):
        """Fair-shared background slows both engines comparably."""
        mech = DiskMechanics()
        layout = InDiskLayout(256, 0.0)
        interval = 0.025

        from repro.disk.workload import BackgroundWorkload

        env = Environment()
        drive = DiskDrive(env, mech, np.random.default_rng(20))
        drive.attach_background(BackgroundWorkload(interval, np.random.default_rng(21)))
        wl = SyntheticWorkload(layout, 0, 10_000_000, np.random.default_rng(22))
        reqs = [drive.read(p.lba, p.sectors) for p in wl.requests(8 * MB // 512)]
        from repro.sim import AllOf

        env.run(until=AllOf(env, [r.done for r in reqs]))
        event_time = max(r.done.value for r in reqs if r.done.value is not None)

        svc = BlockService(
            mech, layout, spt=870, rng=np.random.default_rng(23),
            background=BackgroundLoad(interval_s=interval),
        )
        c = svc.serve(8, MB, 0.0)
        assert float(c[-1]) == pytest.approx(event_time, rel=0.5)
