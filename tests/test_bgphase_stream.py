"""The background-phase draw comes from its own named ``"bgphase"`` stream.

Historically :class:`repro.disk.service.BlockService` drew the background
stream's initial phase from ``self.rng`` — the *service* stream — which
silently interleaved one extra uniform into every background-bearing
disk's service draws and was invisible to the SIM011 stream discipline.
The fix threads a dedicated ``phase_rng`` (derived from the hub's
``"bgphase"`` stream by :meth:`repro.core.base.SchemeBase.service_rng_factory`)
down through :meth:`repro.cluster.server.Cluster.block_service`.

This file pins (a) the exact legacy↔new stream relationship, (b) the
laziness contract (no derivation for background-free disks), and (c) the
affected end-to-end values, as a regression golden.
"""

import numpy as np
import pytest

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.disk.mechanics import DiskMechanics
from repro.disk.service import BackgroundLoad, BlockService
from repro.disk.workload import InDiskLayout
from repro.experiments.harness import TrialPlan, run_scheme
from repro.sim.rng import RngHub


def _service(svc_rng, phase_rng=None, bg_interval=0.006):
    return BlockService(
        DiskMechanics(),
        InDiskLayout(256, 1.0),
        spt=870,
        rng=svc_rng,
        background=BackgroundLoad(bg_interval) if bg_interval else None,
        phase_rng=phase_rng,
    )


class TestPhaseStreamSeparation:
    def test_new_path_equals_legacy_with_split_streams(self):
        """Exact relationship between the legacy and the fixed draw order.

        Legacy consumed [phase, bg-draws...] from one stream.  Giving the
        new path a ``phase_rng`` positioned at the legacy stream's start
        and a service stream advanced past the phase draw must therefore
        reproduce the legacy completions bit for bit — proving the fix
        moved exactly one uniform, nothing else.
        """
        services = _service(np.random.default_rng(0)).block_service_times(8, MB)

        legacy = _service(np.random.default_rng(7), phase_rng=None)
        c_legacy = legacy.completions(services, 0.0)

        phase_rng = np.random.default_rng(7)  # legacy stream, at the phase
        svc_rng = np.random.default_rng(7)
        svc_rng.random()  # skip the slot the phase used to occupy
        fixed = _service(svc_rng, phase_rng=phase_rng)
        c_fixed = fixed.completions(services, 0.0)
        assert np.array_equal(c_legacy, c_fixed)

    def test_phase_rng_used_iff_provided(self):
        """With ``phase_rng`` set, the service stream is phase-free: two
        runs with different phase streams leave differently-phased
        completions, while identical phase streams reproduce exactly."""
        services = _service(np.random.default_rng(0)).block_service_times(8, MB)
        runs = {
            seed: _service(
                np.random.default_rng(7), phase_rng=np.random.default_rng(seed)
            ).completions(services, 0.0)
            for seed in (77, 78, 77_000)
        }
        assert not np.array_equal(runs[77], runs[78])
        again = _service(
            np.random.default_rng(7), phase_rng=np.random.default_rng(77)
        ).completions(services, 0.0)
        assert np.array_equal(runs[77], again)

    def test_background_free_disk_ignores_phase_rng(self):
        """No background → no phase draw, from either stream."""
        services = _service(np.random.default_rng(0)).block_service_times(4, MB)
        a = _service(np.random.default_rng(3), bg_interval=None)
        phase_rng = np.random.default_rng(99)
        b = _service(np.random.default_rng(3), phase_rng=phase_rng, bg_interval=None)
        assert np.array_equal(a.completions(services, 0.0), b.completions(services, 0.0))
        assert phase_rng.bit_generator.state["state"]["state"] == (
            np.random.default_rng(99).bit_generator.state["state"]["state"]
        )


class TestClusterLaziness:
    """Cluster.block_service derives "bgphase" only for loaded disks."""

    def _cluster(self, bg: dict):
        from repro.cluster.server import Cluster

        cluster = Cluster(n_disks=4, disks_per_filer=2)
        cluster.redraw_disk_states(
            np.random.default_rng(0), background_intervals=bg
        )
        return cluster

    def test_derivation_skipped_without_background(self):
        cluster = self._cluster(bg={1: 0.006})
        calls: list[int] = []

        def phase_rng_for(disk_id: int) -> np.random.Generator:
            calls.append(disk_id)
            return np.random.default_rng(1000 + disk_id)

        for d in range(4):
            cluster.block_service(
                d, np.random.default_rng(d), phase_rng_for=phase_rng_for
            )
        assert calls == [1]  # only the background-bearing disk derives

    def test_factory_carries_phase_rng_for(self):
        """service_rng_factory exposes the sibling "bgphase" factory with
        the same key tail as the service stream."""
        from repro.cluster.server import Cluster
        from repro.core.base import SchemeBase

        hub = RngHub(5)
        cluster = Cluster(n_disks=8, disks_per_filer=4)
        cluster.redraw_disk_states(
            np.random.default_rng(0), background_intervals={3: 0.006}
        )
        scheme = SchemeBase(
            cluster,
            AccessConfig(data_bytes=8 * MB, block_bytes=MB, n_disks=4),
            hub=hub,
        )
        rng_for = scheme.service_rng_factory(trial=2, phase="read", disk_ids=[3])
        phase_rng_for = rng_for.phase_rng_for
        expect = hub.fresh("bgphase", "base", 2, "read", 3)
        assert phase_rng_for(3).random() == expect.random()
        assert rng_for(3).random() == hub.fresh("svc", "base", 2, "read", 3).random()


class TestRegressionPins:
    """Pinned values for background-bearing runs under the bgphase fix.

    These are the post-fix goldens: the background-free scheme goldens in
    ``tests/data/golden_schemes.json`` were *not* affected (no background
    → no phase draw), so the affected surface is pinned here instead.
    """

    def test_block_service_completions_pinned(self):
        svc = _service(np.random.default_rng(11), phase_rng=np.random.default_rng(77))
        services = svc.block_service_times(6, MB)
        got = svc.completions(services, 0.0)
        expect = [
            0.40128711619990787,
            0.7263033306888929,
            0.9170569122585062,
            1.4107066658955332,
            1.6610960128517387,
            2.169434200515167,
        ]
        np.testing.assert_allclose(got, expect, rtol=0, atol=0)

    @pytest.mark.parametrize(
        "scheme,expect",
        [
            ("raid0", [1.4103554621645793, 4.466551264893754]),
            ("robustore", [0.42066638675398355, 0.3316711617204502]),
        ],
    )
    def test_background_read_latency_pinned(self, scheme, expect):
        plan = TrialPlan(
            access=AccessConfig(
                data_bytes=32 * MB, block_bytes=MB, n_disks=8, redundancy=3.0
            ),
            mode="read",
            pool=8,
            rtt_s=0.001,
            seed=7,
            trials=2,
            background="homogeneous",
        )
        got = [float(r.latency_s) for r in run_scheme(plan, scheme)]
        np.testing.assert_allclose(got, expect, rtol=0, atol=0)
