"""Tests for the Reed-Solomon RobuSTore variant (code-choice ablation)."""

import numpy as np
import pytest

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.accesscore.trackers import StripeTracker
from repro.cluster.server import Cluster
from repro.core import SCHEMES
from repro.core.policy.placement import rs_decode_bandwidth_bps
from repro.sim.rng import RngHub

CFG = AccessConfig(data_bytes=64 * MB, block_bytes=1 * MB, n_disks=16, redundancy=2.0)


def test_decode_bandwidth_monotone_in_group():
    bws = [rs_decode_bandwidth_bps(g) for g in (4, 8, 16, 32, 64, 128, 256)]
    assert all(b > a for a, b in zip(bws[1:], bws[:-1]))
    # Quadratic-cost extrapolation beyond the table: 256 ~ half of 128.
    assert bws[-1] == pytest.approx(bws[-2] / 2, rel=0.01)


def test_tracker_requires_every_group():
    """An RS group is a stripe of one-block nodes: it fills at k blocks."""
    t = StripeTracker(n_stripes=2, nodes=7, k=2, alpha=1, d=2)
    t.add((0 << 20) | 0)
    t.add((0 << 20) | 1)
    assert not t.complete
    t.add((1 << 20) | 5)
    t.add((1 << 20) | 5)  # duplicate ignored
    assert not t.complete
    t.add((1 << 20) | 6)
    assert t.complete


def test_read_completes_with_decode_tail():
    cluster = Cluster(n_disks=32)
    hub = RngHub(13)
    scheme = SCHEMES["robustore-rs"](cluster, CFG, hub=hub)
    cluster.redraw_disk_states(hub.fresh("env", 0))
    record = scheme.prepare("f", 0)
    assert record.coding["algorithm"] == "reed-solomon"
    r = scheme.read("f", 0)
    assert np.isfinite(r.latency_s)
    assert r.extra["decode_tail_s"] > 0.5  # 64 MB at ~13 MB/s
    assert r.latency_s > r.extra["decode_tail_s"]


def test_rs_variant_slower_than_lt():
    lats = {}
    for name in ("robustore", "robustore-rs"):
        cluster = Cluster(n_disks=32)
        hub = RngHub(13)
        scheme = SCHEMES[name](cluster, CFG, hub=hub)
        cluster.redraw_disk_states(hub.fresh("env", 0))
        scheme.prepare("f", 0)
        lats[name] = scheme.read("f", 0).latency_s
    assert lats["robustore-rs"] > 2 * lats["robustore"]


def test_group_capped_at_256_coded():
    cfg = AccessConfig(data_bytes=64 * MB, n_disks=8, redundancy=9.0)
    scheme = SCHEMES["robustore-rs"](Cluster(n_disks=8), cfg, hub=RngHub(0))
    assert scheme.spec.placement.coding(cfg)["nodes"] <= 256
