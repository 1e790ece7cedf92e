"""``ext_faultstorm``: bandwidth distributions under a mid-operation fault storm.

The dissertation's robustness claims (Chapter 6) perturb the environment
*between* trials — each access still runs on a frozen cluster.  This
experiment perturbs the cluster *during* the access: every (scheme, trial)
pair samples a deterministic fault storm from a seeded
:class:`repro.faults.model.FaultModel` — fail-stops (no repair within the
window), transient slowdowns, filer crashes and link degradations — and
installs it before the read.

The output is a per-scheme bandwidth CDF summary (p10/p50/p90), mean,
standard deviation and coefficient of variation, plus the count of reads
the storm killed outright.  The paper's prediction: RAID-0's distribution
collapses (any lost stripe disk is fatal, so its bandwidth mixes zeros
with full-speed runs — maximal variance); the replicated schemes survive
but stretch; RobuSTore's erasure-coded speculation keeps both the median
and the spread close to the fault-free run.

Equal seeds reproduce equal storms and equal tables (the determinism
contract of :mod:`repro.faults`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.experiments import config as C
from repro.experiments.harness import TrialPlan
from repro.faults.model import FaultModel
from repro.metrics.reporting import format_table

#: The storm used by the experiment (and by the golden regression tests).
#: A fault only matters while the struck disk still holds queued work, so
#: the per-disk MTTF is tuned against the schemes' *busy* windows: an
#: erasure-coded read cancels within a few hundred milliseconds and usually
#: dodges the storm, while a RAID-0 read keeps a straggler busy for
#: seconds and gets caught in a sizeable fraction of trials — without dying
#: every time.  Slowdowns, filer crashes and link degradation ride along.
STORM = FaultModel(
    mttf_s=50.0,
    mttr_s=None,  # no repair inside the window: fail-stops are permanent
    slow_mtbf_s=60.0,
    slow_factor=4.0,
    slow_duration_s=2.0,
    filer_crash_mtbf_s=20.0,
    filer_down_s=0.5,
    link_degrade_mtbf_s=15.0,
    link_extra_s=0.020,
    link_duration_s=2.0,
)

#: Storm sampling horizon; must cover the slowest scheme's access window.
HORIZON_S = 12.0


@dataclass
class FaultstormResult:
    """Per-scheme bandwidth distribution under the fault storm."""

    rows: list
    bandwidths: dict[str, list[float]]

    def text(self) -> str:
        return format_table(
            "Extension: bandwidth under a mid-operation fault storm",
            self.rows,
        )


def _summarise(name: str, results) -> dict:
    """One table row: bandwidth CDF landmarks for a scheme's trials.

    Failed reads (infinite latency) deliver zero bandwidth — they stay in
    the distribution, which is exactly how a lost read shows up to a user.
    """
    bw = np.array(
        [r.bandwidth_bps / MB if np.isfinite(r.latency_s) else 0.0 for r in results]
    )
    failed = int(sum(1 for r in results if not np.isfinite(r.latency_s)))
    mean = float(bw.mean())
    std = float(bw.std())
    p10, p50, p90 = (float(np.percentile(bw, q)) for q in (10, 50, 90))
    return {
        "scheme": name,
        "trials": len(results),
        "failed": failed,
        "bw_p10": round(p10, 2),
        "bw_p50": round(p50, 2),
        "bw_p90": round(p90, 2),
        "bw_mean": round(mean, 2),
        "bw_std": round(std, 2),
        "cv": round(std / mean, 3) if mean > 0 else float("inf"),
    }


def ext_faultstorm(
    data_mb: int = 128,
    n_disks: int = 32,
    seed: int = 0,
    schemes=C.ALL_SCHEMES,
    trials: int | None = None,
) -> FaultstormResult:
    """Run every scheme's read under per-trial sampled fault storms."""
    cfg = AccessConfig(data_bytes=data_mb * MB, n_disks=n_disks)
    plan = TrialPlan(
        access=cfg,
        seed=seed,
        fault_model=STORM,
        fault_horizon_s=HORIZON_S,
        **({"trials": trials} if trials is not None else {}),
    )
    from repro.exec.engine import current_executor
    from repro.exec.job import Job

    batches = current_executor().run_jobs([Job(plan, name) for name in schemes])

    rows = []
    bandwidths: dict[str, list[float]] = {}
    for name, results in zip(schemes, batches):
        rows.append(_summarise(name, results))
        bandwidths[name] = [
            r.bandwidth_bps / MB if np.isfinite(r.latency_s) else 0.0
            for r in results
        ]
    return FaultstormResult(rows, bandwidths)
