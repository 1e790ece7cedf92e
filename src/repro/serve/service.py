"""The serving facade: admit, place, queue, serve — at 10⁵–10⁶ clients.

Simulating a million independent full-detail accesses is neither feasible
nor necessary: what multi-tenant serving adds over the single-access
experiments is *contention* — queueing at the filers, admission pressure,
failover between replicas.  So the facade splits the model in two:

* **Calibration** runs a handful of real scheme accesses (the same
  :mod:`repro.core` machinery every figure uses, admitted through the
  :mod:`repro.core.qos` planner) against the simulated cluster, yielding
  an empirical per-access latency sample that carries the scheme's whole
  single-access behaviour — striping parallelism, speculation, decode
  tail, slow-disk variance.
* **Serving** replays the open-loop workload against per-filer queues:
  each request is placed by the consistent-hash ring, admitted if a
  replica filer can start it within the admission bound (rejected
  gracefully otherwise), and charged a service demand drawn from the
  calibration sample scaled by its size.

Everything draws from one :class:`repro.sim.rng.RngHub`, so a serving
cell is a pure function of ``(plan, scheme)`` — the property the
:mod:`repro.exec` cache and worker pool rely on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.cluster.metadata_distributed import DistributedMetadataServer
from repro.cluster.server import Cluster
from repro.core.pipeline import scheme_class
from repro.core.qos import DiskProfile, QoSOptions, plan_access
from repro.serve.ring import FilePlacer, HashRing
from repro.serve.slo import ServeReport, SloTracker
from repro.serve.workload import WorkloadSpec, generate
from repro.sim.rng import RngHub

#: Requests the replay walks per columnar chunk.  The chunk's Python lists
#: are the loop's whole working set, so its memory is O(chunk) however
#: long the trace is; converting the whole trace to lists up front costs
#: tens of bytes per request in resident memory.
REPLAY_CHUNK = 1024


@dataclass(frozen=True)
class ServePlan:
    """One serving cell: workload plus cluster, placement and QoS shape.

    Attributes
    ----------
    workload:
        The open-loop :class:`~repro.serve.workload.WorkloadSpec`.
    pool / disks_per_filer / rtt_s:
        Cluster shape (defaults match the §6.2.5 baseline).
    replication_factor:
        Distinct filers per file on the ring (primary + failover targets).
    vnodes:
        Virtual nodes per filer on the placement ring.
    meta_partitions:
        Hash partitions of the distributed metadata service.
    access_disks:
        Disks one scheme access stripes over (before QoS sizing).
    target_bandwidth_mbps / redundancy_budget:
        The tenant's QoS requirements, fed to
        :func:`repro.core.qos.plan_access` at admission-planning time.
    calibration_trials / calibration_mb:
        Scheme accesses run to build the empirical latency sample, and
        their reference size.
    filer_concurrency:
        Requests one filer serves concurrently (its admission capacity);
        0 means "one slot per attached disk".
    max_wait_s:
        Admission bound: a request no replica filer can *start* within
        this wait is rejected instead of queued unboundedly.
    slo_latency_s:
        Latency objective; completions under it count toward goodput.
    seed:
        Root seed of the cell's :class:`~repro.sim.rng.RngHub`.
    """

    workload: WorkloadSpec
    pool: int = 128
    disks_per_filer: int = 8
    rtt_s: float = 0.001
    replication_factor: int = 3
    vnodes: int = 128
    meta_partitions: int = 4
    access_disks: int = 16
    target_bandwidth_mbps: float | None = None
    redundancy_budget: float = 3.0
    calibration_trials: int = 8
    calibration_mb: int = 64
    filer_concurrency: int = 0
    max_wait_s: float = 30.0
    slo_latency_s: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pool < 1 or self.disks_per_filer < 1:
            raise ValueError("disk counts must be positive")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.calibration_trials < 1:
            raise ValueError("need at least one calibration trial")
        if self.max_wait_s <= 0 or self.slo_latency_s <= 0:
            raise ValueError("admission and SLO bounds must be positive")

    @property
    def n_filers(self) -> int:
        return -(-self.pool // self.disks_per_filer)

    @property
    def slots_per_filer(self) -> int:
        return self.filer_concurrency or self.disks_per_filer


# ---------------------------------------------------------------------------
# the facade


class StorageService:
    """A multi-tenant serving front end over the simulated cluster."""

    def __init__(self, plan: ServePlan, scheme_name: str) -> None:
        self.plan = plan
        self.scheme_name = scheme_name
        self.hub = RngHub(plan.seed)
        self.cluster = Cluster(
            n_disks=plan.pool,
            disks_per_filer=plan.disks_per_filer,
            rtt_s=plan.rtt_s,
        )
        self.metadata = DistributedMetadataServer(n_nodes=plan.meta_partitions)
        self.ring = HashRing(range(self.cluster.n_filers), vnodes=plan.vnodes)
        self.placer = FilePlacer(self.ring, self.metadata)
        # QoS admission planning: the tenant's requirements become the
        # access shape every request of this service is served with.
        self.access = plan_access(
            AccessConfig(
                data_bytes=plan.calibration_mb * MB,
                block_bytes=1 * MB,
                n_disks=plan.access_disks,
                redundancy=plan.redundancy_budget,
            ),
            QoSOptions(
                target_bandwidth_mbps=plan.target_bandwidth_mbps,
                redundancy_budget=plan.redundancy_budget,
            ),
            DiskProfile(pool_size=plan.pool),
        )
        self._place_catalogue()

    def _place_catalogue(self) -> None:
        """Ring-place every catalogue file; record it in metadata."""
        self.catalogue = [f"f{fid}" for fid in range(self.plan.workload.n_files)]
        self.placer.place(
            self.catalogue,
            int(self.plan.workload.size_mean_mb * MB),
            self.scheme_name,
            self.plan.replication_factor,
        )

    # -- calibration ----------------------------------------------------------
    def calibrate(self) -> np.ndarray:
        """Empirical single-access latencies of the scheme on this cluster.

        Runs real scheme accesses (same code path as every figure) at the
        reference size; the serving loop bootstraps per-request service
        demands from this sample.
        """
        plan = self.plan
        scheme = scheme_class(self.scheme_name)(self.cluster, self.access, hub=self.hub)
        lats = []
        for trial in range(plan.calibration_trials):
            self.cluster.redraw_disk_states(
                self.hub.fresh("cal-env", self.scheme_name, trial)
            )
            name = f"cal-{self.scheme_name}-{trial}"
            scheme.prepare(name, trial)
            result = scheme.read(name, trial)
            if np.isfinite(result.latency_s):
                lats.append(float(result.latency_s))
        if not lats:
            raise RuntimeError(
                f"{self.scheme_name}: no calibration access completed"
            )
        return np.array(lats)

    # -- serving --------------------------------------------------------------
    def run(self) -> ServeReport:
        """Replay the open-loop workload; return the cell's SLO report.

        The loop holds only the sequential part of the model (the
        earliest-start replica choice and the slot-heap update).  Replica
        sets are resolved once per catalogue file, and the trace is walked
        in :data:`REPLAY_CHUNK`-request chunks whose outcomes reach the
        tracker as one batch.
        """
        plan = self.plan
        spec = plan.workload
        batch = generate(spec, self.hub)
        cal = self.calibrate()

        # Per-request service demand: a calibration sample scaled by the
        # request's size (the scheme's parallelism is inside the sample).
        svc_rng = self.hub.stream("serve", "svc")
        picks = svc_rng.integers(0, cal.size, size=len(batch))
        ref_bytes = float(plan.calibration_mb * MB)
        service_s = cal[picks] * (batch.size_bytes / ref_bytes)
        meta_s = self.metadata.latency_s
        max_wait_s = plan.max_wait_s

        # Each filer serves `slots` requests concurrently; a slot-heap
        # per filer tracks when capacity frees up.  A file's replica set
        # is held as its filers' heaps, primary first.
        slots = [
            [0.0] * plan.slots_per_filer for _ in range(self.cluster.n_filers)
        ]
        replicas = [
            [slots[f] for f in filers]
            for filers in self.placer.lookup(self.catalogue)
        ]

        tracker = SloTracker(spec.duration_s, plan.slo_latency_s)
        inf = float("inf")
        for lo in range(0, len(batch), REPLAY_CHUNK):
            hi = lo + REPLAY_CHUNK
            arrivals = batch.arrival_s[lo:hi].tolist()
            files = batch.file_id[lo:hi].tolist()
            service = service_s[lo:hi].tolist()
            n = len(arrivals)
            latency = [0.0] * n
            admitted = [False] * n
            failover = [False] * n
            for i in range(n):
                t = arrivals[i]
                heaps = replicas[files[i]]
                # Earliest-start replica wins; ties keep the primary.
                best, best_start = None, inf
                for heap in heaps:
                    start = heap[0] if heap[0] > t else t
                    if start < best_start:
                        best, best_start = heap, start
                if best_start - t > max_wait_s:
                    continue
                svc = service[i]
                heapq.heapreplace(best, best_start + svc)
                latency[i] = (best_start - t) + svc + meta_s
                admitted[i] = True
                failover[i] = best is not heaps[0]
            tracker.record(latency, batch.size_bytes[lo:hi], admitted, failover)
        return tracker.report(self.scheme_name, spec.n_clients)


# ---------------------------------------------------------------------------
# closed-loop compatibility mode (the original ext_multiuser shape)


def closed_loop_point(
    scheme_name: str,
    n_clients: int,
    cfg: AccessConfig,
    pool: int = 16,
    rtt_s: float = 0.001,
    trials: int = 3,
    seed: int = 0,
) -> list[float]:
    """Per-client latencies of ``n_clients`` closed-loop clients.

    The pre-``repro.serve`` multi-user model: every client issues the
    same access shape over the *same* drives in the event-driven
    reference engine, so contention emerges from shared per-drive
    queues.  Kept as the ``ext_multiuser`` compatibility entry; the
    open-loop :class:`StorageService` path supersedes it for scale.
    """
    from repro.accesscore.events import event_read
    from repro.core import SCHEMES

    lats: list[float] = []
    for trial in range(trials):
        cluster = Cluster(n_disks=pool, rtt_s=rtt_s)
        hub = RngHub(seed + trial)
        scheme = SCHEMES[scheme_name](cluster, cfg, hub=hub)
        cluster.redraw_disk_states(hub.fresh("env", trial))
        scheme.prepare("f", trial)
        ref = event_read(scheme, "f", trial=trial, n_clients=n_clients)
        lats.extend(float(v) for v in ref.per_client.values())
    return lats
