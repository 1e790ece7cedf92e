"""Tests for the distributed metadata service."""

import pytest

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.cluster.metadata import FileLockedError, FileRecord
from repro.cluster.metadata_distributed import DistributedMetadataServer
from repro.cluster.server import Cluster
from repro.core import SCHEMES
from repro.sim.rng import RngHub


def make(n_nodes=4, sync_replicas=1):
    return DistributedMetadataServer(n_nodes=n_nodes, sync_replicas=sync_replicas)


def test_commit_lookup_roundtrip():
    md = make()
    md.commit(FileRecord("a/b", 10, "robustore", disk_ids=[1], placement=[[0]]))
    assert md.lookup("a/b").size_bytes == 10
    assert md.exists("a/b")


def test_partitioning_spreads_files():
    md = make(n_nodes=4, sync_replicas=0)
    for i in range(64):
        md.commit(FileRecord(f"file-{i}", 1, "raid0"))
    per_node = [sum(1 for i in range(64) if md._node_of(f"file-{i}") == n) for n in range(4)]
    assert all(p > 0 for p in per_node)  # no empty partition at this scale


def test_mutations_sync_to_replicas():
    md = make(n_nodes=4, sync_replicas=2)
    lat = md.commit(FileRecord("f", 1, "raid0"))
    assert md.sync_messages == 2
    assert lat > md.node_latency_s  # sync cost charged


def test_read_latency_cheaper_than_central():
    from repro.cluster.metadata import METADATA_ACCESS_LATENCY_S

    md = make()
    md.commit(FileRecord("f", 1, "raid0"))
    _, lat = md.open("f", "r")
    assert lat < METADATA_ACCESS_LATENCY_S


def test_locks_enforced_per_partition():
    md = make()
    md.open("f", "w")
    with pytest.raises(FileLockedError):
        md.open("f", "w")
    md.close("f")
    md.commit(FileRecord("f", 1, "raid0"))
    md.open("f", "r")  # fine after release


def test_failover_lookup():
    md = make(n_nodes=3, sync_replicas=1)
    md.commit(FileRecord("x", 1, "raid0"))
    primary = md._node_of("x")
    rec = md.lookup_with_failover("x", failed_node=primary)
    assert rec.name == "x"


def test_failover_without_replica_raises():
    md = make(n_nodes=3, sync_replicas=0)
    md.commit(FileRecord("x", 1, "raid0"))
    with pytest.raises(KeyError):
        md.lookup_with_failover("x", failed_node=md._node_of("x"))


def test_delete_propagates():
    md = make(n_nodes=2, sync_replicas=1)
    md.commit(FileRecord("f", 1, "raid0"))
    md.delete("f")
    assert not md.exists("f")
    for node in md._nodes:
        assert not node.exists("f")


def test_server_registry_is_global():
    md = make(n_nodes=3)
    md.register_server(7, {"capacity": 1})
    assert md.server_info(7)["capacity"] == 1


def test_sync_replicas_clipped():
    md = DistributedMetadataServer(n_nodes=2, sync_replicas=5)
    assert md.sync_replicas == 1
    with pytest.raises(ValueError):
        DistributedMetadataServer(n_nodes=0)


def test_schemes_run_on_distributed_metadata():
    """The storage schemes accept either metadata implementation."""
    cfg = AccessConfig(data_bytes=16 * MB, block_bytes=1 * MB, n_disks=4, redundancy=2.0)
    cluster = Cluster(n_disks=8)
    hub = RngHub(1)
    md = make()
    scheme = SCHEMES["robustore"](cluster, cfg, hub=hub, metadata=md)
    cluster.redraw_disk_states(hub.fresh("env", 0))
    scheme.prepare("f", 0)
    r = scheme.read("f", 0)
    assert r.latency_s > 0
    assert md.accesses > 0
