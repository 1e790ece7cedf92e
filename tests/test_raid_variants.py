"""Tests for the RAID-5 and RAID-0+1 baseline schemes."""

import numpy as np
import pytest

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.accesscore.trackers import PARITY_BASE
from repro.cluster.server import Cluster
from repro.core import SCHEMES
from repro.core.policy.placement import ParityStripePlacement
from repro.sim.rng import RngHub

CFG = AccessConfig(data_bytes=32 * MB, block_bytes=1 * MB, n_disks=8, redundancy=3.0)


def make(name, trial=0, failed=None, seed=21):
    cluster = Cluster(n_disks=8, rtt_s=0.001)
    hub = RngHub(seed)
    scheme = SCHEMES[name](cluster, CFG, hub=hub)
    cluster.redraw_disk_states(hub.fresh("env", trial), failed_disks=failed)
    record = scheme.prepare("f", trial)
    return cluster, hub, scheme, record


class TestRaid5:
    def test_layout_parity_per_stripe(self):
        _, _, scheme, record = make("raid5")
        stripes = record.extra["stripes"]
        # 32 blocks over 8 disks: 7 data + 1 parity per stripe -> 5 stripes.
        assert len(stripes) == -(-CFG.k // 7)
        for stripe in stripes:
            data_disks = {d for _, d in stripe["data"]}
            assert stripe["parity_disk"] not in data_disks
        parity_ids = [b for p in record.placement for b in p if b >= PARITY_BASE]
        assert len(parity_ids) == len(stripes)

    def test_parity_rotates(self):
        _, _, _, record = make("raid5")
        pd = [s["parity_disk"] for s in record.extra["stripes"]]
        assert len(set(pd)) > 1

    def test_fault_free_read_skips_parity(self):
        _, _, scheme, _ = make("raid5")
        r = scheme.read("f", 0)
        assert np.isfinite(r.latency_s)
        assert r.blocks_received == CFG.k  # data blocks only
        assert r.io_overhead == pytest.approx(0.0)
        assert not r.extra["degraded"]

    def test_degraded_read_recovers_single_failure(self):
        cluster, hub, scheme, record = make("raid5")
        cluster.redraw_disk_states(
            hub.fresh("env", 0), failed_disks={record.disk_ids[0]}
        )
        r = scheme.read("f", 0)
        assert np.isfinite(r.latency_s)
        assert r.extra["degraded"]
        # Parity of the affected stripes replaces the lost data blocks in
        # the transfer plan, so the byte count stays ~K blocks.
        assert r.io_overhead >= 0.0
        assert r.blocks_received >= CFG.k

    def test_two_failures_unrecoverable(self):
        cluster, hub, scheme, record = make("raid5")
        cluster.redraw_disk_states(
            hub.fresh("env", 0),
            failed_disks={record.disk_ids[0], record.disk_ids[1]},
        )
        r = scheme.read("f", 0)
        assert r.latency_s == float("inf")
        assert r.extra["unrecoverable"]

    def test_write_includes_parity_overhead(self):
        cluster = Cluster(n_disks=8)
        hub = RngHub(3)
        scheme = SCHEMES["raid5"](cluster, CFG, hub=hub)
        cluster.redraw_disk_states(hub.fresh("env", 0))
        r = scheme.write("f", 0)
        assert r.network_bytes > CFG.data_bytes
        assert r.io_overhead == pytest.approx(1 / 7, abs=0.05)

    def test_needs_two_disks(self):
        with pytest.raises(ValueError):
            ParityStripePlacement.layout(4, 1)


class TestRaid01:
    def test_layout_two_mirrors(self):
        _, _, _, record = make("raid0+1")
        half = len(record.disk_ids) // 2
        set_a = [b for p in record.placement[:half] for b in p]
        set_b = [b for p in record.placement[half:] for b in p]
        assert sorted(set_a) == list(range(CFG.k))
        assert sorted(b - CFG.k for b in set_b) == list(range(CFG.k))

    def test_read_completes_with_coverage(self):
        _, _, scheme, _ = make("raid0+1")
        r = scheme.read("f", 0)
        assert np.isfinite(r.latency_s)
        assert 0.0 <= r.io_overhead <= 1.0

    def test_survives_one_mirror_failure(self):
        cluster, hub, scheme, record = make("raid0+1")
        cluster.redraw_disk_states(
            hub.fresh("env", 0), failed_disks={record.disk_ids[0]}
        )
        r = scheme.read("f", 0)
        assert np.isfinite(r.latency_s)

    def test_dies_when_both_mirrors_fail(self):
        cluster, hub, scheme, record = make("raid0+1")
        half = len(record.disk_ids) // 2
        cluster.redraw_disk_states(
            hub.fresh("env", 0),
            failed_disks={record.disk_ids[0], record.disk_ids[half]},
        )
        r = scheme.read("f", 0)
        assert r.latency_s == float("inf")

    def test_write_doubles_bytes(self):
        cluster = Cluster(n_disks=8)
        hub = RngHub(4)
        scheme = SCHEMES["raid0+1"](cluster, CFG, hub=hub)
        cluster.redraw_disk_states(hub.fresh("env", 0))
        r = scheme.write("f", 0)
        assert r.network_bytes == 2 * CFG.data_bytes


def test_scheme_comparison_with_new_baselines():
    """RobuSTore still dominates the extended baseline set."""
    lats = {}
    for name in ("raid0", "raid5", "raid0+1", "robustore"):
        _, _, scheme, _ = make(name)
        lats[name] = scheme.read("f", 0).latency_s
    assert lats["robustore"] < min(lats["raid0"], lats["raid5"], lats["raid0+1"])
