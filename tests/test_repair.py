"""Tests for the repair/rebuild subsystem."""

import numpy as np
import pytest

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.cluster.server import Cluster
from repro.core import SCHEMES
from repro.core.repair import failed_positions, repair_file
from repro.sim.rng import RngHub

CFG = AccessConfig(data_bytes=32 * MB, block_bytes=1 * MB, n_disks=8, redundancy=3.0)


def make(failed_count=2, seed=17):
    cluster = Cluster(n_disks=8)
    hub = RngHub(seed)
    scheme = SCHEMES["robustore"](cluster, CFG, hub=hub)
    cluster.redraw_disk_states(hub.fresh("env", 0))
    record = scheme.prepare("f", 0)
    failed = {record.disk_ids[p] for p in range(failed_count)}
    cluster.redraw_disk_states(hub.fresh("env", 0), failed_disks=failed)
    return cluster, hub, scheme, record


def test_failed_positions_detects():
    _, _, scheme, _ = make(failed_count=2)
    assert sorted(failed_positions(scheme, "f")) == [0, 1]


def test_repair_rebuilds_lost_redundancy():
    cluster, hub, scheme, record = make(failed_count=2)
    lost = sum(len(record.placement[p]) for p in (0, 1))
    report = repair_file(scheme, "f", trial=1)
    assert report.complete
    assert report.blocks_rebuilt == lost
    assert report.disks_touched == 6
    assert report.wall_time_s > 0

    # Metadata now maps every block to a healthy disk...
    merged = scheme.metadata.lookup("f").placement
    assert merged[0] == [] and merged[1] == []
    total = sum(len(p) for p in merged)
    assert total == CFG.n_coded


def test_repaired_file_readable_after_disks_replaced():
    cluster, hub, scheme, record = make(failed_count=2)
    repair_file(scheme, "f", trial=1)
    # The dead disks stay dead; the read must succeed from the survivors.
    r = scheme.read("f", 2)
    assert np.isfinite(r.latency_s)


def test_repair_survives_repeat_failures():
    cluster, hub, scheme, record = make(failed_count=1)
    repair_file(scheme, "f", trial=1)
    # A second disk dies later; repair again.
    failed = {record.disk_ids[0], record.disk_ids[2]}
    cluster.redraw_disk_states(hub.fresh("env", 5), failed_disks=failed)
    report = repair_file(scheme, "f", trial=2)
    assert report.complete
    assert np.isfinite(scheme.read("f", 3).latency_s)


def test_repair_nothing_lost_is_cheap():
    cluster, hub, scheme, record = make(failed_count=0)
    report = repair_file(scheme, "f", trial=1)
    assert report.blocks_lost == 0
    assert report.write_s == 0.0


def test_repair_impossible_raises():
    cluster, hub, scheme, record = make(failed_count=8)
    with pytest.raises(RuntimeError):
        repair_file(scheme, "f", trial=1)


def test_repair_does_not_mutate_pooled_graph():
    from repro.core.policy.placement import pooled_graph

    cluster, hub, scheme, record = make(failed_count=1)
    key_graph = pooled_graph(CFG.k, CFG.n_coded, CFG.lt_c, CFG.lt_delta, 0)
    n_before = key_graph.n
    repair_file(scheme, "f", trial=1)
    assert key_graph.n == n_before  # copy-on-repair protected the pool
    assert scheme.metadata.lookup("f").extra["graph"].n > n_before
