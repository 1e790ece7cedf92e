"""Scheme base class: wiring between cluster, metadata and access engine."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.accesscore.result import AccessConfig, AccessResult
from repro.accesscore.routing import open_latency_s
from repro.cluster.metadata import FileRecord, MetadataServer
from repro.cluster.server import Cluster
from repro.core.scheduler import AccessScheduler
from repro.sim.rng import RngHub


class SchemeBase:
    """Common machinery for the four storage schemes.

    Parameters
    ----------
    cluster:
        The storage cluster (servers, disks, caches, links).
    config:
        Access parameters (data size, block size, #disks, redundancy).
    hub:
        Deterministic RNG hub; every stochastic choice derives from it.
    metadata:
        Metadata server; a private one is created if omitted.
    """

    name = "base"

    def __init__(
        self,
        cluster: Cluster,
        config: AccessConfig,
        hub: RngHub | None = None,
        metadata: MetadataServer | None = None,
        selector: AccessScheduler | None = None,
    ) -> None:
        if config.n_disks > cluster.n_disks:
            raise ValueError(
                f"access wants {config.n_disks} disks, pool has {cluster.n_disks}"
            )
        self.cluster = cluster
        self.config = config
        self.hub = hub or RngHub(0)
        self.metadata = metadata or MetadataServer(tracer=cluster.tracer)
        self.selector = selector or AccessScheduler(cluster.n_disks)

    @property
    def tracer(self):
        """The cluster's tracer (the no-op tracer unless one is installed)."""
        return self.cluster.tracer

    # -- deterministic random streams ------------------------------------------
    def select_disks(self, trial: int) -> np.ndarray:
        """Pick this access's disks (random subset, random order)."""
        rng = self.hub.fresh("select", self.name, trial)
        return self.selector.select(self.config.n_disks, rng)

    def service_rng_factory(self, trial: int, phase: str) -> Callable[[int], np.random.Generator]:
        """Per-disk service random streams for one access phase.

        The returned factory also carries a ``phase_rng_for`` attribute: a
        sibling factory for the disk's background-phase draw (its own
        ``"bgphase"`` stream, so the phase draw no longer perturbs the
        service stream).  Callers probe it with ``getattr`` so hand-rolled
        factories in tests keep the legacy draw-from-service-stream path.
        """

        def rng_for(disk_id: int) -> np.random.Generator:
            return self.hub.fresh("svc", self.name, trial, phase, disk_id)

        def phase_rng_for(disk_id: int) -> np.random.Generator:
            return self.hub.fresh("bgphase", self.name, trial, phase, disk_id)

        rng_for.phase_rng_for = phase_rng_for
        return rng_for

    def reference_rng_factory(self, trial: int) -> Callable[[int], np.random.Generator]:
        """Per-disk service streams for the event-driven reference engine.

        A separate stream family (``"refsvc"``) from the closed form's
        ``"svc"``: the DES interleaves foreground and background draws per
        request, so sharing a stream would make the two engines perturb
        each other's draw order.  Keyed by (scheme, trial, disk) — the two
        engines stay independently reproducible.
        """

        def rng_for(disk_id: int) -> np.random.Generator:
            return self.hub.fresh("refsvc", self.name, trial, disk_id)

        return rng_for

    def open_latency(self) -> float:
        return open_latency_s(self.metadata)

    # -- interface implemented by each scheme --------------------------------------
    def prepare(self, file_name: str, trial: int) -> FileRecord:
        """Provision a file (balanced layout) without simulating the write.

        Used by the read-only experiments, which study fresh reads of data
        assumed already stored.
        """
        raise NotImplementedError

    def write(self, file_name: str, trial: int) -> AccessResult:
        """Simulate a write access; registers the resulting file record."""
        raise NotImplementedError

    def read(self, file_name: str, trial: int) -> AccessResult:
        """Simulate a read access of a prepared/written file."""
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------------
    def _register(
        self,
        file_name: str,
        disk_ids: np.ndarray,
        placement: list[list[int]],
        coding: Optional[dict] = None,
        extra: Optional[dict] = None,
    ) -> FileRecord:
        record = FileRecord(
            name=file_name,
            size_bytes=self.config.data_bytes,
            scheme=self.name,
            coding=coding or {},
            disk_ids=[int(d) for d in disk_ids],
            placement=[list(map(int, p)) for p in placement],
            extra=extra or {},
        )
        self.metadata.commit(record)
        return record

    def _record(self, file_name: str) -> FileRecord:
        return self.metadata.lookup(file_name)
