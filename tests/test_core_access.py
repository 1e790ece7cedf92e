"""Tests for the shared access machinery."""

import numpy as np
import pytest

from repro.accesscore.result import AccessConfig, AccessResult
from repro.accesscore.routing import MB, decode_tail_s
from repro.accesscore.timeline import (
    completion_with_order,
    finalize_read,
    merged_arrival_order,
    serve_read_queues,
    simulate_uniform_write,
)
from repro.accesscore.trackers import CoverageTracker
from repro.cluster.server import Cluster
from repro.disk.workload import InDiskLayout


class TestAccessConfig:
    def test_baseline_derivations(self):
        cfg = AccessConfig()
        assert cfg.k == 1024
        assert cfg.n_coded == 4096
        assert cfg.replicas == 4

    def test_zero_redundancy(self):
        cfg = AccessConfig(redundancy=0.0)
        assert cfg.n_coded == cfg.k
        assert cfg.replicas == 1

    def test_fractional_redundancy(self):
        cfg = AccessConfig(data_bytes=16 * MB, redundancy=0.5)
        assert cfg.n_coded == 24


class TestAccessResult:
    def test_bandwidth_and_overhead(self):
        r = AccessResult(
            latency_s=2.0, data_bytes=4 * MB, network_bytes=6 * MB,
            disk_blocks=6, blocks_received=6,
        )
        assert r.bandwidth_mbps == pytest.approx(2.0)
        assert r.io_overhead == pytest.approx(0.5)

    def test_zero_latency_guard(self):
        r = AccessResult(0.0, MB, MB, 1, 1)
        assert r.bandwidth_bps == 0.0


class TestTrackers:
    def test_all_blocks_tracker(self):
        """RAID-0's rule is coverage over ids below k: every block."""
        t = CoverageTracker(3)
        t.add(0); t.add(0); t.add(1)
        assert not t.complete
        t.add(2)
        assert t.complete

    def test_coverage_tracker_counts_originals(self):
        t = CoverageTracker(2)
        t.add(0)   # original 0
        t.add(2)   # replica of original 0
        assert not t.complete
        t.add(3)   # replica of original 1
        assert t.complete


def make_cluster(**kw):
    c = Cluster(n_disks=8, rtt_s=0.002, **kw)
    c.redraw_disk_states(np.random.default_rng(0), layout=InDiskLayout(256, 1.0))
    return c


def rng_for_factory():
    return lambda disk_id: np.random.default_rng(100 + disk_id)


class TestServeReadQueues:
    def test_streams_shape_and_timing(self):
        c = make_cluster()
        placement = [[0, 1], [2], [], [3]]
        streams = serve_read_queues(c, [0, 1, 2, 3], placement, MB, 0.0, rng_for_factory())
        assert len(streams) == 4
        s0 = streams[0]
        assert s0.block_ids.tolist() == [0, 1]
        # Arrival after request one-way + service + response one-way.
        assert np.all(s0.arrivals > 0.002)
        assert streams[2].arrivals.size == 0

    def test_merged_order_sorted(self):
        c = make_cluster()
        placement = [[0, 1], [2, 3]]
        streams = serve_read_queues(c, [0, 1], placement, MB, 0.0, rng_for_factory())
        times, ids = merged_arrival_order(streams)
        assert np.all(np.diff(times) >= 0)
        assert sorted(ids.tolist()) == [0, 1, 2, 3]

    def test_completion_time_with_tracker(self):
        c = make_cluster()
        placement = [[0], [1]]
        streams = serve_read_queues(c, [0, 1], placement, MB, 0.0, rng_for_factory())
        t, consumed, order = completion_with_order(streams, CoverageTracker(2))
        assert np.isfinite(t)
        assert consumed == 2
        assert sorted(order) == [0, 1]

    def test_completion_impossible_returns_inf(self):
        c = make_cluster()
        placement = [[0]]
        streams = serve_read_queues(c, [0], placement, MB, 0.0, rng_for_factory())
        t, consumed, _ = completion_with_order(streams, CoverageTracker(2))
        assert t == float("inf")
        assert consumed == 1

    def test_finalize_counts_bytes_and_cancels(self):
        c = make_cluster()
        placement = [[0, 1, 2, 3, 4, 5, 6, 7]]
        streams = serve_read_queues(c, [0], placement, MB, 0.0, rng_for_factory())
        # Cancel early: at the 2nd block's completion.
        t_done = float(streams[0].completions[1])
        net, disk_blocks, hits = finalize_read(streams, c, t_done, MB)
        assert hits == 0
        # 2 complete + possibly the in-flight 3rd.
        assert disk_blocks in (2, 3)
        assert net == disk_blocks * MB
        assert c.total_network_bytes == net

    def test_cached_blocks_arrive_at_request_time(self):
        c = Cluster(n_disks=8, rtt_s=0.002, fs_cache_bytes=64 << 20, cache_line_bytes=MB)
        c.redraw_disk_states(np.random.default_rng(0), layout=InDiskLayout(8, 0.0))
        filer = c.filer_of_disk(0)
        filer.record_write("f", [0], MB)
        streams = serve_read_queues(c, [0], [[0, 1]], MB, 0.0, rng_for_factory(), "f")
        s = streams[0]
        assert s.cached.tolist() == [True, False]
        cached_arrival = s.arrivals[0]
        uncached_arrival = s.arrivals[1]
        assert cached_arrival == pytest.approx(0.002)  # 2x one-way only
        assert uncached_arrival > cached_arrival + 0.05  # slow disk


class TestUniformWrite:
    def test_write_gated_by_slowest_disk(self):
        c = Cluster(n_disks=2, rtt_s=0.002)
        rng = np.random.default_rng(1)
        c.redraw_disk_states(rng, layout=InDiskLayout(1024, 1.0))
        # Make disk 1 slow.
        from repro.cluster.server import DiskState

        st = c.disk_state(1)
        c._disk_states[1] = DiskState(1, InDiskLayout(8, 0.0), st.spt)
        t_done, net = simulate_uniform_write(
            c, [0, 1], [[0, 1], [2, 3]], MB, 0.0, rng_for_factory()
        )
        # Slow disk needs seconds; fast disk finishes in tens of ms.
        assert t_done > 1.0
        assert net == 4 * MB

    def test_empty_placement_ok(self):
        c = make_cluster()
        t_done, net = simulate_uniform_write(c, [0], [[]], MB, 0.5, rng_for_factory())
        assert t_done == 0.5
        assert net == 0


def test_decode_tail():
    assert decode_tail_s(MB) == pytest.approx(MB / 500e6)


class TestClientNic:
    def test_infinite_nic_is_passthrough(self):
        c = make_cluster()
        streams = serve_read_queues(c, [0, 1], [[0], [1]], MB, 0.0, rng_for_factory())
        t1, i1 = merged_arrival_order(streams)
        t2, i2 = merged_arrival_order(streams, MB, float("inf"))
        assert np.array_equal(t1, t2) and np.array_equal(i1, i2)

    def test_finite_nic_serialises_arrivals(self):
        c = make_cluster()
        placement = [[0, 1, 2, 3], [4, 5, 6, 7]]
        streams = serve_read_queues(c, [0, 1], placement, MB, 0.0, rng_for_factory())
        rate = 2 * MB  # 2 MB/s NIC: 0.5 s per block minimum spacing
        times, _ = merged_arrival_order(streams, MB, rate)
        gaps = np.diff(times)
        assert np.all(gaps >= 0.5 - 1e-9)

    def test_nic_never_speeds_up(self):
        c = make_cluster()
        streams = serve_read_queues(c, [0], [[0, 1, 2]], MB, 0.0, rng_for_factory())
        base, _ = merged_arrival_order(streams)
        capped, _ = merged_arrival_order(streams, MB, 1 * MB)
        assert np.all(capped >= base - 1e-12)

    def test_config_default_infinite(self):
        assert AccessConfig().client_bandwidth_bps == float("inf")
