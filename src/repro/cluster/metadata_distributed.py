"""Distributed metadata service (§4.2).

The dissertation weighs a central metadata server (simple, update-cheap,
scalability-limited) against a distributed one ("potential to support
more disks and users with faster responses, while it also involves higher
management costs for synchronization, load balancing, and so on").  This
module implements the distributed variant: file records hash-partition
across metadata nodes; reads hit one partition, mutations additionally pay
a synchronisation cost to replicate the change to ``sync_replicas`` peer
nodes.  ``commit``, ``lookup`` and ``latency_s`` match
:class:`repro.cluster.metadata.MetadataServer`, so a scheme can run on
either; the serving facade records and resolves its catalogue through the
bulk ``commit_many``/``lookup_many``.
"""

from __future__ import annotations

from repro.cluster.metadata import (
    METADATA_ACCESS_LATENCY_S,
    FileRecord,
    MetadataServer,
)
from repro.sim.rng import _fnv32, fnv32_many


class DistributedMetadataServer:
    """Hash-partitioned metadata over ``n_nodes`` cooperating servers.

    Parameters
    ----------
    n_nodes:
        Number of metadata partitions.
    node_latency_s:
        Per-node access latency; lower than a loaded central server
        because each node handles 1/n of the traffic.
    sync_latency_s:
        Extra latency charged per mutation for replicating it to the
        partition's peers.
    sync_replicas:
        How many peer nodes every mutation synchronises to.
    """

    def __init__(
        self,
        n_nodes: int = 4,
        node_latency_s: float = METADATA_ACCESS_LATENCY_S / 2,
        sync_latency_s: float = METADATA_ACCESS_LATENCY_S,
        sync_replicas: int = 1,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one metadata node")
        if sync_replicas >= n_nodes and n_nodes > 1:
            sync_replicas = n_nodes - 1
        self.n_nodes = n_nodes
        self.node_latency_s = node_latency_s
        self.sync_latency_s = sync_latency_s
        self.sync_replicas = sync_replicas if n_nodes > 1 else 0
        self._nodes = [MetadataServer(latency_s=node_latency_s) for _ in range(n_nodes)]
        self.accesses = 0
        self.sync_messages = 0

    # The scheme layer reads `latency_s` for open-cost estimation.
    @property
    def latency_s(self) -> float:
        return self.node_latency_s

    def _node_of(self, name: str) -> int:
        return _fnv32(name.encode()) % self.n_nodes

    def _partitions(self, names) -> list[int]:
        """:meth:`_node_of` of every name, in one :func:`fnv32_many` pass."""
        return (fnv32_many([name.encode() for name in names]) % self.n_nodes).tolist()

    def _group(self, part: int) -> list[MetadataServer]:
        """Partition ``part``'s node, then its ``sync_replicas`` peers."""
        return [
            self._nodes[(part + i) % self.n_nodes]
            for i in range(self.sync_replicas + 1)
        ]

    def _mutation_latency(self) -> float:
        return self.node_latency_s + (
            self.sync_latency_s if self.sync_replicas else 0.0
        )

    # -- MetadataServer-compatible interface ------------------------------------
    def commit_many(self, records) -> None:
        """Commit every record to its partition and that partition's peers."""
        groups = [self._group(part) for part in range(self.n_nodes)]
        parts = self._partitions([record.name for record in records])
        for record, part in zip(records, parts):
            for node in groups[part]:
                node.commit(record)
        self.accesses += len(parts)
        self.sync_messages += len(parts) * self.sync_replicas

    def commit(self, record: FileRecord) -> float:
        self.commit_many([record])
        return self._mutation_latency()

    def lookup_many(self, names) -> list[FileRecord]:
        """The record of every name, each from its partition."""
        nodes = self._nodes
        return [
            nodes[part].lookup(name)
            for name, part in zip(names, self._partitions(names))
        ]

    def lookup(self, name: str) -> FileRecord:
        return self.lookup_many([name])[0]
