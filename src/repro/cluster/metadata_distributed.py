"""Distributed metadata service (§4.2).

The dissertation weighs a central metadata server (simple, update-cheap,
scalability-limited) against a distributed one ("potential to support
more disks and users with faster responses, while it also involves higher
management costs for synchronization, load balancing, and so on").  This
module implements the distributed variant: file records hash-partition
across metadata nodes; reads hit one partition, mutations additionally pay
a synchronisation cost to replicate the change to ``sync_replicas`` peer
nodes.  The interface matches :class:`repro.cluster.metadata.MetadataServer`
so the schemes can run on either.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.metadata import (
    METADATA_ACCESS_LATENCY_S,
    FileRecord,
    MetadataServer,
)


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
        h = 2166136261
        for ch in name.encode():
            h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
        return h % self.n_nodes

    def _primary(self, name: str) -> MetadataServer:
        return self._nodes[self._node_of(name)]

    def _peers(self, name: str) -> list[MetadataServer]:
        if self.sync_replicas == 0:
            return []
        base = self._node_of(name)
        return [
            self._nodes[(base + i) % self.n_nodes]
            for i in range(1, self.sync_replicas + 1)
        ]

    def _mutation_latency(self) -> float:
        return self.node_latency_s + (
            self.sync_latency_s if self.sync_replicas else 0.0
        )

    # -- MetadataServer-compatible interface ------------------------------------
    def open(self, name: str, mode: str, holder: str = "client"):
        self.accesses += 1
        record, _ = self._primary(name).open(name, mode, holder)
        return record, self.node_latency_s

    def commit(self, record: FileRecord) -> float:
        self.accesses += 1
        self._primary(record.name).commit(record)
        for peer in self._peers(record.name):
            peer.commit(record)
            self.sync_messages += 1
        return self._mutation_latency()

    def close(self, name: str, holder: str = "client") -> float:
        self.accesses += 1
        self._primary(name).close(name, holder)
        return self.node_latency_s

    def lookup(self, name: str) -> FileRecord:
        return self._primary(name).lookup(name)

    def exists(self, name: str) -> bool:
        return self._primary(name).exists(name)

    def delete(self, name: str) -> float:
        self.accesses += 1
        self._primary(name).delete(name)
        for peer in self._peers(name):
            peer.delete(name)
            self.sync_messages += 1
        return self._mutation_latency()

    def update_placement(self, name: str, placement) -> float:
        self.accesses += 1
        self._primary(name).update_placement(name, placement)
        for peer in self._peers(name):
            if peer.exists(name):
                peer.update_placement(name, placement)
            self.sync_messages += 1
        return self._mutation_latency()

    # -- failover ---------------------------------------------------------------
    def lookup_with_failover(self, name: str, failed_node: Optional[int] = None) -> FileRecord:
        """Serve a lookup from a sync replica when the primary is down."""
        primary = self._node_of(name)
        if failed_node != primary:
            return self._nodes[primary].lookup(name)
        for peer in self._peers(name):
            if peer.exists(name):
                return peer.lookup(name)
        raise KeyError(f"{name}: primary down and no replica holds the record")

    def register_server(self, server_id: int, info: dict | None = None) -> float:
        self.accesses += 1
        for node in self._nodes:  # server registry is global knowledge
            node.register_server(server_id, info)
        return self._mutation_latency()

    def server_info(self, server_id: int) -> dict:
        return self._nodes[0].server_info(server_id)
