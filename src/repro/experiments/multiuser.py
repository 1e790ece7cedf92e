"""Extension: multi-user workload evaluation (§7.3 future work).

The dissertation models competing users only as synthetic background
streams and leaves "a more accurate model of multi-user workloads" to
future work.  Two experiments run it:

* ``ext_multiuser`` (this module) — the *closed-loop* compatibility
  entry: N concurrent clients issue the same-shaped access over the
  *same* drives in the event-driven reference engine, so contention
  emerges from the shared per-drive queues.  The plumbing lives in the
  :mod:`repro.serve` facade (:func:`repro.serve.closed_loop_point`);
  this module only shapes the sweep and formats the table.
* ``ext_serve`` (:mod:`repro.experiments.serve_experiment`) — the
  *open-loop* serving simulation that scales the same question to 10⁵+
  clients with consistent-hash placement and SLO metrics.

Reported per client count: mean per-client latency, per-client bandwidth,
and aggregate delivered throughput — for RobuSTore and RAID-0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.metrics.reporting import format_table
from repro.serve import closed_loop_point


@dataclass
class MultiUserResult:
    rows: list

    def text(self) -> str:
        return format_table(
            "Extension: concurrent clients sharing one disk pool "
            "(event-driven engine)",
            self.rows,
        )


def ext_multiuser(
    client_counts=(1, 2, 4, 8),
    data_mb: int = 64,
    n_disks: int = 16,
    pool: int = 16,
    trials: int = 3,
    seed: int = 0,
) -> MultiUserResult:
    """Per-client and aggregate performance vs concurrent client count."""
    cfg = AccessConfig(
        data_bytes=data_mb * MB, block_bytes=1 * MB, n_disks=n_disks, redundancy=3.0
    )
    rows = []
    for scheme_name in ("raid0", "robustore"):
        for n in client_counts:
            lats = closed_loop_point(
                scheme_name, n, cfg, pool=pool, rtt_s=0.001,
                trials=trials, seed=seed,
            )
            lat = float(np.mean(lats))
            per_client_bw = data_mb / lat
            rows.append(
                {
                    "scheme": scheme_name,
                    "clients": n,
                    "lat_s": round(lat, 2),
                    "per_client_MBps": round(per_client_bw, 1),
                    "aggregate_MBps": round(per_client_bw * n, 1),
                }
            )
    return MultiUserResult(rows)
