"""Tests for the cluster and filer layers."""

import numpy as np
import pytest

from repro.cluster.server import Cluster
from repro.disk.workload import InDiskLayout


def test_cluster_topology():
    c = Cluster(n_disks=128, disks_per_filer=8)
    assert c.n_filers == 16
    assert c.filer_of_disk(0).filer_id == 0
    assert c.filer_of_disk(127).filer_id == 15
    assert c.filer_of_disk(9).disk_ids == list(range(8, 16))
    assert [f.filer_id for f in c.filers] == list(range(16))


def test_cluster_ragged_last_filer():
    c = Cluster(n_disks=10, disks_per_filer=8)
    assert c.n_filers == 2
    assert c.filers[1].disk_ids == [8, 9]
    assert c.filer_of_disk(9) is c.filers[1]


def test_cluster_validation():
    with pytest.raises(ValueError):
        Cluster(n_disks=0)


def test_redraw_heterogeneous_states():
    c = Cluster(n_disks=32)
    c.redraw_disk_states(np.random.default_rng(0))
    layouts = {
        (c.disk_state(d).layout.blocking_factor, c.disk_state(d).layout.p_sequential)
        for d in range(32)
    }
    assert len(layouts) > 4  # heterogeneous draws


def test_redraw_homogeneous():
    c = Cluster(n_disks=8)
    c.redraw_disk_states(np.random.default_rng(0), layout=InDiskLayout(256, 1.0))
    for d in range(8):
        st = c.disk_state(d)
        assert st.layout.blocking_factor == 256
        assert st.background is None


def test_redraw_with_background():
    c = Cluster(n_disks=4)
    c.redraw_disk_states(np.random.default_rng(0), background_intervals={1: 0.01})
    assert c.disk_state(1).background is not None
    assert c.disk_state(0).background is None


def test_block_service_uses_state():
    c = Cluster(n_disks=4)
    c.redraw_disk_states(np.random.default_rng(0), layout=InDiskLayout(1024, 1.0))
    svc = c.block_service(0, np.random.default_rng(1))
    bw = svc.standalone_bandwidth(n_blocks=32)
    assert bw > 10 * (1 << 20)  # the fast config


def test_network_accounting():
    c = Cluster(n_disks=16)
    c.filer_of_disk(0).link.account(100)
    c.filer_of_disk(15).link.account(23)
    assert c.total_network_bytes == 123
    c.reset_network_counters()
    assert c.total_network_bytes == 0


def test_filer_cache_disabled_by_default():
    c = Cluster(n_disks=8, fs_cache_bytes=0)
    filer = c.filer_of_disk(0)
    assert filer.cache is None
    mask = filer.cached_blocks("f", [0, 1, 2])
    assert not mask.any()


def test_filer_cache_roundtrip():
    c = Cluster(n_disks=8, fs_cache_bytes=64 << 20, cache_line_bytes=1 << 20)
    filer = c.filer_of_disk(0)
    filer.record_write("f", [0, 1], 1 << 20)
    mask = filer.cached_blocks("f", [0, 1, 2])
    assert list(mask) == [True, True, False]


def test_filer_record_read_counts_disk_bytes():
    c = Cluster(n_disks=8, fs_cache_bytes=64 << 20, cache_line_bytes=1 << 20)
    filer = c.filer_of_disk(0)
    filer.record_read("f", [0, 1], 1 << 20)
    assert filer.disk_bytes_read == 2 << 20
    filer.record_read("f", [0], 1 << 20)  # now cached: no disk bytes
    assert filer.disk_bytes_read == 2 << 20
