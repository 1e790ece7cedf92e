"""Integration tests of the four storage schemes (small configurations)."""

import numpy as np
import pytest

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.cluster.server import Cluster
from repro.core import SCHEMES
from repro.disk.workload import InDiskLayout
from repro.sim.rng import RngHub

CFG = AccessConfig(data_bytes=64 * MB, block_bytes=1 * MB, n_disks=16, redundancy=3.0)


def run_read(name, trial=0, cfg=CFG, layout=None, n_pool=32, rtt=0.001, fixed_zone=None):
    cluster = Cluster(n_disks=n_pool, rtt_s=rtt)
    hub = RngHub(42)
    scheme = SCHEMES[name](cluster, cfg, hub=hub)
    cluster.redraw_disk_states(
        hub.fresh("env", name, trial), layout=layout, fixed_zone=fixed_zone
    )
    scheme.prepare("f", trial)
    return scheme.read("f", trial)


def run_write(name, trial=0, cfg=CFG, n_pool=32):
    cluster = Cluster(n_disks=n_pool, rtt_s=0.001)
    hub = RngHub(42)
    scheme = SCHEMES[name](cluster, cfg, hub=hub)
    cluster.redraw_disk_states(hub.fresh("env", name, trial))
    return scheme, scheme.write("f", trial)


@pytest.mark.parametrize("name", list(SCHEMES))
def test_read_completes_and_reports(name):
    r = run_read(name)
    assert np.isfinite(r.latency_s) and r.latency_s > 0
    assert r.network_bytes >= CFG.data_bytes or name == "rraid-a"
    assert r.bandwidth_mbps > 0


@pytest.mark.parametrize("name", list(SCHEMES))
def test_write_completes(name):
    _, r = run_write(name)
    assert np.isfinite(r.latency_s) and r.latency_s > 0
    assert r.network_bytes > 0


def test_raid0_has_zero_overhead():
    r = run_read("raid0")
    assert r.io_overhead == pytest.approx(0.0)
    assert r.blocks_received == CFG.k


def test_rraid_s_fetches_duplicates():
    r = run_read("rraid-s")
    assert r.io_overhead > 0.5  # replication wastes transfers


def test_rraid_a_near_zero_overhead():
    r = run_read("rraid-a")
    assert -0.01 <= r.io_overhead < 0.25


def test_robustore_overhead_near_reception_overhead():
    r = run_read("robustore")
    rec = r.extra["reception_overhead"]
    assert 0.1 < rec < 1.0
    assert r.io_overhead >= rec - 0.05


def test_robustore_beats_raid0_heterogeneous():
    lats = {n: run_read(n).latency_s for n in ("raid0", "robustore")}
    assert lats["robustore"] < lats["raid0"] / 3


def test_raid0_matches_others_homogeneous():
    """In a homogeneous environment RobuSTore loses its edge (§7.2)."""
    lay = InDiskLayout(512, 1.0)
    r_raid = run_read("raid0", layout=lay, fixed_zone=4)
    r_robu = run_read("robustore", layout=lay, fixed_zone=4)
    # RobuSTore pays reception overhead; RAID-0 reads only K blocks.
    assert r_robu.latency_s > r_raid.latency_s * 0.9


def test_rraid_a_sensitive_to_rtt():
    fast = [run_read("rraid-a", trial=t, rtt=0.001) for t in range(6)]
    slow = [run_read("rraid-a", trial=t, rtt=0.1) for t in range(6)]
    assert np.mean([r.latency_s for r in slow]) > np.mean([r.latency_s for r in fast])
    assert all(r.rounds > 1 for r in slow)  # multi-round adaptive requests


def test_raid0_insensitive_to_rtt():
    fast = run_read("raid0", rtt=0.001)
    slow = run_read("raid0", rtt=0.1)
    assert slow.latency_s - fast.latency_s < 0.5


def test_robustore_write_is_unbalanced():
    scheme, r = run_write("robustore")
    record = scheme.metadata.lookup("f")
    counts = [len(p) for p in record.placement]
    assert max(counts) > min(counts)  # speculative writes skew placement
    assert r.extra["overshoot"] >= 0
    assert sum(counts) == r.disk_blocks


def test_robustore_write_faster_than_uniform_writers():
    _, r_robu = run_write("robustore")
    _, r_s = run_write("rraid-s")
    assert r_robu.latency_s < r_s.latency_s


def test_read_after_write_roundtrip():
    """RaW: read the unbalanced placement a speculative write produced."""
    cluster = Cluster(n_disks=32, rtt_s=0.001)
    hub = RngHub(7)
    scheme = SCHEMES["robustore"](cluster, CFG, hub=hub)
    cluster.redraw_disk_states(hub.fresh("env", 0))
    scheme.write("f", 0)
    cluster.redraw_disk_states(hub.fresh("env", 1))  # dynamic performance
    r = scheme.read("f", 1)
    assert np.isfinite(r.latency_s)
    assert r.extra["reception_overhead"] < 1.5


def test_robustore_zero_redundancy_still_decodes_balanced():
    """D=0: the writer-guaranteed graph decodes with exactly K blocks."""
    cfg = AccessConfig(data_bytes=16 * MB, n_disks=8, redundancy=0.0)
    r = run_read("robustore", cfg=cfg)
    assert np.isfinite(r.latency_s)


def test_determinism_same_seed_same_result():
    a = run_read("robustore", trial=3)
    b = run_read("robustore", trial=3)
    assert a.latency_s == b.latency_s
    assert a.network_bytes == b.network_bytes


def test_scheme_rejects_oversized_disk_request():
    cluster = Cluster(n_disks=8)
    with pytest.raises(ValueError):
        SCHEMES["raid0"](cluster, AccessConfig(n_disks=16))
