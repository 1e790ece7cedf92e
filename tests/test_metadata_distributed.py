"""Tests for the distributed metadata service."""

import pytest

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.cluster.metadata import FileRecord, MetadataServer
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
    # ``latency_s`` is what a scheme charges for the open of a read.
    assert make().latency_s < MetadataServer().latency_s


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


NAMES = ["", "a", "f0", "file-123", "日本語", "x" * 30] + [f"f{i}" for i in range(60)]


@pytest.mark.parametrize("n_nodes", [1, 3, 4, 7])
def test_bulk_partitions_equal_node_of(n_nodes):
    md = make(n_nodes=n_nodes, sync_replicas=0)
    assert md._partitions(NAMES) == [md._node_of(name) for name in NAMES]
    assert md._partitions([]) == []


def spy_on_nodes(monkeypatch, **servers):
    """Log every per-node commit and lookup as (node index, op, name)."""
    logs = {label: [] for label in servers}
    where = {
        id(node): (label, i)
        for label, md in servers.items()
        for i, node in enumerate(md._nodes)
    }
    for op in ("commit", "lookup"):
        real = getattr(MetadataServer, op)

        def spy(node, arg, _real=real, _op=op):
            label, i = where[id(node)]
            logs[label].append((i, _op, arg if isinstance(arg, str) else arg.name))
            return _real(node, arg)

        monkeypatch.setattr(MetadataServer, op, spy)
    return logs


@pytest.mark.parametrize("n_nodes,sync_replicas", [(1, 0), (4, 0), (4, 2), (5, 4)])
def test_bulk_commit_and_lookup_equal_the_per_record_path(
    monkeypatch, n_nodes, sync_replicas
):
    records = [FileRecord(name, i, "raid0") for i, name in enumerate(NAMES)]
    single = make(n_nodes=n_nodes, sync_replicas=sync_replicas)
    bulk = make(n_nodes=n_nodes, sync_replicas=sync_replicas)
    logs = spy_on_nodes(monkeypatch, single=single, bulk=bulk)
    latencies = {single.commit(r) for r in records}
    found = [single.lookup(name) for name in NAMES]
    bulk.commit_many(records)
    assert bulk.lookup_many(NAMES) == found
    # Each record commits to its partition, then to the next
    # sync_replicas partitions; each lookup reads its partition.
    parts = [single._node_of(name) for name in NAMES]
    expected = [
        ((part + i) % n_nodes, "commit", name)
        for name, part in zip(NAMES, parts)
        for i in range(sync_replicas + 1)
    ] + [(part, "lookup", name) for name, part in zip(NAMES, parts)]
    assert logs["single"] == expected
    assert logs["bulk"] == expected
    assert (bulk.accesses, bulk.sync_messages) == (single.accesses, single.sync_messages)
    assert [n.accesses for n in bulk._nodes] == [n.accesses for n in single._nodes]
    assert latencies == {single._mutation_latency()}
