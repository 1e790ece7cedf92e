"""Ablations of the design choices DESIGN.md calls out.

* ``abl_cancel`` — §5.3.3 request cancellation: I/O overhead with the
  cancel message vs letting every queued block drain.
* ``abl_improved_lt`` — §5.2.3: original vs improved LT codes
  (decodability guarantee + uniform coverage).
* ``abl_admission`` — §5.4: aggregate disk throughput with and without a
  capacity-based admission cap under many concurrent flows.
* ``abl_code_choice`` — §5.2.1: RobuSTore with LT vs with Reed-Solomon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.admission import CapacityAdmission, Flow, effective_disk_share
from repro.coding.lt import ImprovedLTCode, LTCode
from repro.coding.peeling import blocks_needed, decodable
from repro.experiments import config as C
from repro.experiments.harness import TrialPlan, run_point
from repro.metrics.reporting import Table, format_table


@dataclass
class CancelAblation:
    io_overhead_with_cancel: float
    io_overhead_without_cancel: float
    bandwidth_mbps: float

    def text(self) -> str:
        return format_table(
            "Ablation: request cancellation (§5.3.3), RobuSTore read, D=3",
            [
                {
                    "cancel": "on",
                    "io_overhead": round(self.io_overhead_with_cancel, 2),
                    "bw_mbps": round(self.bandwidth_mbps, 1),
                },
                {
                    "cancel": "off",
                    "io_overhead": round(self.io_overhead_without_cancel, 2),
                    "bw_mbps": round(self.bandwidth_mbps, 1),
                },
            ],
        )


def abl_cancel(seed: int = 0, trials: int | None = None) -> CancelAblation:
    """Without cancellation every stored block eventually crosses the
    network, so read I/O overhead degenerates to the full redundancy D."""
    plan = TrialPlan(
        access=C.baseline_access(),
        mode="read",
        seed=seed,
        trials=trials if trials is not None else C.trials(10),
    )
    summary = run_point(plan, ("robustore",))["robustore"]
    return CancelAblation(
        io_overhead_with_cancel=summary.io_overhead,
        io_overhead_without_cancel=plan.access.redundancy,
        bandwidth_mbps=summary.bandwidth_mbps,
    )


def abl_improved_lt(
    k: int = 512, expansion: int = 4, samples: int = 12, seed: int = 0
) -> Table:
    """Decodability failures, overhead spread, coverage spread."""
    rows = []
    for label, cls in (("original", LTCode), ("improved", ImprovedLTCode)):
        code = cls(k, c=1.0, delta=0.5)
        failures = 0
        overheads = []
        spreads = []
        for s in range(samples):
            rng = np.random.default_rng(seed + 97 * s)
            graph = code.build_graph(expansion * k, rng)
            if not decodable(graph):
                failures += 1
                continue
            used = blocks_needed(graph, rng.permutation(graph.n))
            overheads.append(used / k - 1.0)
            deg = graph.original_degrees()
            spreads.append(int(deg.max() - deg.min()))
        rows.append(
            {
                "encoder": label,
                "undecodable": f"{failures}/{samples}",
                "recv_ovh": round(float(np.mean(overheads)), 3) if overheads else "—",
                "ovh_std": round(float(np.std(overheads)), 3) if overheads else "—",
                "deg_spread": round(float(np.mean(spreads)), 1) if spreads else "—",
            }
        )
    return Table("Ablation: original vs improved LT (§5.2.3)", rows)


def abl_admission(offered_flows=(1, 2, 4, 8, 16, 32), capacity: int = 4) -> Table:
    """Aggregate throughput of one disk under n concurrent large flows.

    Without admission control all flows share (and thrash) the disk; with
    a capacity cap the surplus flows are refused and the disk keeps most
    of its exclusive-mode throughput.
    """
    rows = []
    for n in offered_flows:
        uncapped = effective_disk_share(n)
        ac = CapacityAdmission(capacity=capacity)
        admitted = sum(1 for _ in range(n) if ac.request(Flow(nbytes=1)))
        capped = effective_disk_share(admitted)
        rows.append(
            {
                "offered": n,
                "admitted": admitted,
                "agg_thr_uncapped": round(uncapped, 3),
                "agg_thr_capped": round(capped, 3),
            }
        )
    return Table("Ablation: capacity-based admission control (§5.4)", rows)


def abl_code_choice(seed: int = 0, trials: int | None = None) -> Table:
    """Same speculative machinery, different code: why the paper picks LT.

    RS pays a quadratic, non-overlappable decode tail and loses the
    single-long-word flexibility to per-group fills.
    """
    plan = TrialPlan(
        access=C.baseline_access(),
        mode="read",
        seed=seed,
        trials=trials if trials is not None else C.trials(10),
    )
    rows = []
    for name, summary in run_point(plan, ("robustore", "robustore-rs")).items():
        rows.append(
            {
                "scheme": name,
                "bw_MBps": round(summary.bandwidth_mbps, 1),
                "lat_s": round(summary.latency_mean_s, 2),
                "lat_std_s": round(summary.latency_std_s, 2),
                "io_ovh": round(summary.io_overhead, 2),
            }
        )
    return Table("Ablation: LT vs Reed-Solomon inside RobuSTore (§5.2.1)", rows)
