"""``ext_repair``: the repair economy — coding families x rebuild schedulers.

Chapter 5 treats rebuild as an afterthought: reads route around dead
disks and the lost redundancy is someone else's problem.  This experiment
prices that problem.  A mild seeded MTTF storm (1-2 permanent fail-stops
per run) hits a cluster holding files under three coding families —

* LT (``robustore``): whole-object reconstruction — re-read ~K(1+eps)
  blocks, re-encode fresh coded blocks;
* grouped Reed-Solomon (``robustore-rs``): per-group reconstruction —
  re-read a full group word per affected group;
* product-matrix regenerating (``regen-msr`` / ``regen-mbr``): per-node
  functional repair — each of ``d`` helpers ships one sub-symbol per lost
  node (Dimakis et al.'s repair-bandwidth point).

— and every (family x scheduler) cell runs the same storm through a
:class:`repro.rebuild.RepairLedger`-metered repair pass under one of the
rebuild scheduling policies (eager, lazy threshold, batched).  The table
reports the economy: helper bytes read and bytes moved per disk failure,
read amplification per lost MB, repairs executed inline vs deferred to
the end-of-horizon drain, degraded reads observed while redundancy was
below target, and foreground p99 latency inflation against the
fault-free baseline.

The headline ordering (asserted by the golden regression): regenerating
repair moves strictly fewer helper bytes per failure than RS group
reconstruction, which moves fewer than LT's whole-object re-read — at
equal storage overhead (redundancy 3.0, so MSR's nodes-per-stripe lands
on the same 4x expansion as RS).  Scheduling never changes the bytes
(repair passes are keyed RNG draws, not consumption-order draws); it
only moves *when* they flow and how long reads stay degraded.

Equal seeds reproduce equal storms, ledgers and tables bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.cluster.server import Cluster
from repro.core.pipeline import scheme_class
from repro.core.repair import drain_repairs, maybe_repair
from repro.experiments import config as C
from repro.faults.model import FaultModel
from repro.faults.plan import DISK_FAIL
from repro.metrics.reporting import format_table
from repro.rebuild import RepairLedger, scheduler_for
from repro.sim.rng import RngHub

#: The repair storm: per-disk exponential fail-stop clocks, no repair
#: window (kills are permanent until the rebuild pass replaces the lost
#: blocks), plus transient slowdowns for texture.  Tuned so the sampler
#: below lands 1-2 kills inside the access window — the sparse-failure
#: regime where per-group/per-node reconstruction amortizes over few
#: losses and the coding families separate cleanly.
STORM = FaultModel(
    mttf_s=25.0,
    mttr_s=None,
    slow_mtbf_s=8.0,
    slow_factor=3.0,
    slow_duration_s=0.3,
)

#: Storm sampling horizon — kept inside the foreground read window so
#: kills actually degrade reads rather than landing after they finish.
HORIZON_S = 1.0

#: Any permanent kill drops a file below this fraction of its redundancy
#: target, so every storm triggers the repair pipeline (the 0.5 default
#: floor would shrug off one kill of thirty-two at redundancy 3).
TRIGGER_FLOOR = 0.99

#: The coding families under comparison (all at redundancy 3.0).
REPAIR_SCHEMES = ("robustore", "robustore-rs", "regen-msr", "regen-mbr")

#: Rebuild scheduling policies and their knobs.  Lazy's absolute floor
#: sits below any sparse-storm surviving redundancy, so it defers every
#: task to the drain; batched releases its backlog every third offer.
POLICIES = (
    ("eager", {}),
    ("lazy", {"floor": 0.25}),
    ("batched", {"batch_size": 3}),
)


def sample_storm(rng: np.random.Generator, n_disks: int):
    """Draw storms until one has 1-2 permanent kills (deterministic in rng).

    Rejected draws advance the stream, so the accepted plan is still a
    pure function of the seed; the acceptance window pins the sparse
    failure regime the economy comparison needs.
    """
    while True:
        plan = STORM.sample_plan(rng, n_disks, HORIZON_S)
        kills = sum(1 for ev in plan if ev.kind == DISK_FAIL)
        if 1 <= kills <= 2:
            return plan, kills


@dataclass
class RepairEconomyResult:
    """Per (coding family x scheduler) repair-economy ledger summaries."""

    rows: list
    summaries: dict[str, dict]
    #: Helper bytes read per disk failure under the eager policy, per scheme
    #: — the quantity the regenerating-code literature orders.
    bytes_per_failure: dict[str, float]

    def text(self) -> str:
        return format_table(
            "Extension: the repair economy (coding family x rebuild scheduler)",
            self.rows,
        )


def _run_cell(
    name: str, policy: str, kwargs: dict, cfg: AccessConfig,
    n_disks: int, files: int, seed: int,
) -> dict:
    """One (scheme, policy) cell: provision, storm, repair, re-read."""
    cluster = Cluster(n_disks=n_disks, rtt_s=C.BASELINE_RTT_S)
    hub = RngHub(seed)
    scheme = scheme_class(name)(cluster, cfg, hub=hub)
    scheme.REPAIR_REDUNDANCY_FLOOR = TRIGGER_FLOOR
    ledger = RepairLedger()
    cluster.repair_ledger = ledger
    scheduler = scheduler_for(policy, **kwargs)

    # Provision every file and take fault-free baseline reads on one
    # frozen environment (same disk-state draw in every cell, so the
    # only cross-cell difference is the coding family and the policy).
    cluster.redraw_disk_states(hub.fresh("env", 0))
    base = []
    for t in range(files):
        scheme.prepare(f"f{t}", t)
        base.append(scheme.read(f"f{t}", t).latency_s)

    # The storm stream is keyed by seed alone — every cell gets the
    # identical storm, so ledgers are comparable across the grid.
    plan, kills = sample_storm(hub.fresh("rebuild", 0), n_disks)
    cluster.install_faults(plan)

    # Foreground pass 1: degraded reads, each offering its repair task.
    fg = []
    for t in range(files):
        r = scheme.read(f"f{t}", t)
        fg.append(r.latency_s)
        maybe_repair(scheme, f"f{t}", t, r, scheduler=scheduler, ledger=ledger)
    inline = len(ledger.events)

    # Foreground pass 2: what a client sees *after* the policy had its
    # say — eager reads repaired placements, lazy still-degraded ones.
    for t in range(files):
        fg.append(scheme.read(f"f{t}", t).latency_s)

    drained = len(drain_repairs(scheme, scheduler, ledger))

    lost_mb = ledger.blocks_lost * cfg.block_bytes / MB
    p99_base = float(np.percentile(base, 99))
    p99_fg = float(np.percentile(fg, 99))
    return {
        "scheme": name,
        "policy": policy,
        "kills": kills,
        "lost_MB": round(lost_mb, 1),
        "helper_rd_MB": round(ledger.bytes_read_helpers / MB, 1),
        "moved_MB": round(ledger.bytes_moved / MB, 1),
        "rd_MB_per_fail": round(ledger.bytes_read_helpers / MB / kills, 1),
        "read_amp": round(ledger.bytes_read_helpers / (lost_mb * MB), 2)
        if lost_mb else 0.0,
        "inline": inline,
        "drained": drained,
        "degr_reads": ledger.degraded_reads,
        "p99_infl": round(p99_fg / p99_base, 2),
        "_summary": ledger.summary(),
    }


def ext_repair(
    data_mb: int = 64,
    n_disks: int = 32,
    seed: int = 0,
    schemes=REPAIR_SCHEMES,
    trials: int | None = None,
) -> RepairEconomyResult:
    """Sweep coding family x rebuild scheduler under one pinned storm.

    ``trials`` is the number of provisioned files per cell (each file is
    one repair task when the storm hits); defaults to 4.
    """
    files = 4 if trials is None else trials
    cfg = AccessConfig(
        data_bytes=data_mb * MB, block_bytes=1 * MB,
        n_disks=n_disks, redundancy=3.0,
    )
    rows = []
    summaries: dict[str, dict] = {}
    bytes_per_failure: dict[str, float] = {}
    for name in schemes:
        for policy, kwargs in POLICIES:
            row = _run_cell(name, policy, kwargs, cfg, n_disks, files, seed)
            summaries[f"{name}/{policy}"] = row.pop("_summary")
            rows.append(row)
            if policy == "eager":
                bytes_per_failure[name] = (
                    summaries[f"{name}/eager"]["bytes_read_helpers"] / row["kills"]
                )
    return RepairEconomyResult(rows, summaries, bytes_per_failure)
