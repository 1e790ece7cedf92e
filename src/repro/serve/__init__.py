"""repro.serve: multi-tenant storage serving simulation.

The dissertation evaluates single accesses; §7.3 leaves "a more accurate
model of multi-user workloads" to future work.  This package runs it at
scale: files are placed across filers by a consistent-hash ring with
virtual nodes and replication-factor-aware node selection (backed by the
hash-partitioned :class:`repro.cluster.metadata_distributed.
DistributedMetadataServer`), an open-loop seeded workload generator
drives heavy-tailed, bursty, skewed traffic against the pool, requests
are admitted through the :mod:`repro.core.qos` planner, and SLO-grade
metrics — p50/p99/p999 latency over fixed-bin histograms, goodput under
overload, rejection rate — come out per scheme.

Determinism contract: every draw flows through :class:`repro.sim.rng.
RngHub` (lint rule SIM001 bans wall-clock reads and OS entropy, SIM002
global RNG state), so a serving sweep is byte-identical across runs and
across ``-j 1`` vs ``-j N`` worker pools.  See ``docs/serving.md``.
"""

from repro.serve.ring import FilePlacer, HashRing
from repro.serve.service import ServePlan, StorageService, closed_loop_point
from repro.serve.slo import ServeReport, SloTracker
from repro.serve.workload import RequestBatch, WorkloadSpec, generate

__all__ = [
    "FilePlacer",
    "HashRing",
    "RequestBatch",
    "ServePlan",
    "ServeReport",
    "SloTracker",
    "StorageService",
    "WorkloadSpec",
    "closed_loop_point",
    "generate",
]
