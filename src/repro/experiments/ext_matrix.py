"""``ext_matrix``: the policy-composition grid, fault-free and stormy.

The layered policy architecture (:mod:`repro.core.policy`) makes every
scheme a declarative composition of placement x dispatch x completion x
fault-reaction x write.  This experiment sweeps the whole registered grid
— the paper's seven schemes *plus* the cross-product compositions that
exist only because the layers compose (``lt+adaptive``,
``mirror+adaptive``, ``rs+adaptive``) — through one read workload twice:
once on a healthy cluster and once under the :data:`ext_faultstorm` storm.

For each composition the table lists the layer stack (so the reader can
see *what* was composed) next to fault-free median write and read
bandwidth, storm median read bandwidth, the storm retention ratio and
the storm's outright kill count.  (The storm leg reads a fresh balanced
placement, mirroring :mod:`repro.experiments.faultstorm`: a storm can
kill the *write*, and a file that was never stored has nothing to read.)  The interesting comparisons the monoliths could never ask:
does adaptive dispatch rescue a mirrored placement the way rotated
replicas do?  Does LT coding still dodge the storm when driven by
multi-round stealing instead of speculation?
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.core.policy.compose import COMPOSITIONS
from repro.experiments import config as C
from repro.experiments.faultstorm import HORIZON_S, STORM
from repro.experiments.harness import TrialPlan
from repro.metrics.reporting import format_table

#: Every registered composition, paper schemes first, cross-products last.
MATRIX_SCHEMES = tuple(COMPOSITIONS)


def _layer_names(name: str) -> dict:
    """Short layer labels for one composition (placement/dispatch/completion)."""
    spec = COMPOSITIONS[name]

    def short(obj, suffix: str) -> str:
        label = type(obj).__name__
        return label[: -len(suffix)].lower() if label.endswith(suffix) else label.lower()

    return {
        "placement": short(spec.placement, "Placement"),
        "dispatch": short(spec.dispatch, "Dispatch"),
        "completion": short(spec.completion, "Completion"),
        "reaction": short(spec.reaction, "Reaction"),
    }


def _median_bw(results) -> float:
    bw = [r.bandwidth_bps / MB if np.isfinite(r.latency_s) else 0.0 for r in results]
    return float(np.median(bw))


@dataclass
class MatrixResult:
    """Per-composition bandwidth, healthy vs under the fault storm."""

    rows: list
    medians: dict[str, tuple[float, float]]

    def text(self) -> str:
        return format_table(
            "Extension: the placement x dispatch x completion grid",
            self.rows,
        )


def ext_matrix(
    data_mb: int = 64,
    n_disks: int = 16,
    seed: int = 0,
    schemes=MATRIX_SCHEMES,
    trials: int | None = None,
) -> MatrixResult:
    """Run every composition fault-free and under the storm; tabulate both."""
    cfg = AccessConfig(data_bytes=data_mb * MB, n_disks=n_disks)
    extra = {"trials": trials} if trials is not None else {}
    writes = TrialPlan(access=cfg, mode="write", seed=seed, **extra)
    healthy = TrialPlan(access=cfg, mode="read", seed=seed, **extra)
    stormy = TrialPlan(
        access=cfg,
        mode="read",
        seed=seed,
        fault_model=STORM,
        fault_horizon_s=HORIZON_S,
        **extra,
    )
    from repro.exec.engine import current_executor
    from repro.exec.job import Job

    # One batch for the whole (scheme × leg) grid, so a parallel executor
    # overlaps every cell rather than each scheme's three legs at a time.
    legs = (writes, healthy, stormy)
    jobs = [Job(plan, name) for name in schemes for plan in legs]
    batches = iter(current_executor().run_jobs(jobs))

    rows = []
    medians: dict[str, tuple[float, float]] = {}
    for name in schemes:
        wr, base, storm = (next(batches) for _ in legs)
        bw0 = _median_bw(base)
        bw1 = _median_bw(storm)
        killed = int(sum(1 for r in storm if not np.isfinite(r.latency_s)))
        medians[name] = (bw0, bw1)
        rows.append(
            {
                "scheme": name,
                **_layer_names(name),
                "w_p50": round(_median_bw(wr), 2),
                "bw_p50": round(bw0, 2),
                "storm_p50": round(bw1, 2),
                "retained": round(bw1 / bw0, 3) if bw0 > 0 else 0.0,
                "killed": killed,
            }
        )
    return MatrixResult(rows, medians)
