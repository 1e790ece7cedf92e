"""Scheme shoot-out: the paper's headline comparison, reproduced live.

Reads 1 GB from 64 heterogeneous disks (random in-disk layouts spanning a
~100x bandwidth spread) under each of the four storage schemes, printing
the three §6.2.3 metrics.  This is Fig 6-6/6-7/6-8 at the baseline point.

Run:  python examples/scheme_shootout.py [trials]
"""

import sys

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.experiments.harness import TrialPlan, run_point
from repro.metrics.reporting import format_table


def main() -> None:
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 15
    plan = TrialPlan(
        access=AccessConfig(
            data_bytes=1024 * MB, block_bytes=1 * MB, n_disks=64, redundancy=3.0
        ),
        mode="read",
        trials=trials,
        seed=7,
    )
    print(f"1 GB read, 64 of 128 disks, 3x redundancy, {trials} trials per scheme\n")
    point = run_point(plan)
    rows = []
    for name, summary in point.items():
        rows.append(
            {
                "scheme": name,
                "bw MB/s": round(summary.bandwidth_mbps, 1),
                "lat s": round(summary.latency_mean_s, 2),
                "lat std s": round(summary.latency_std_s, 2),
                "io ovh": round(summary.io_overhead, 2),
            }
        )
    print(format_table("Headline comparison (paper: 31 / 117 / 228 / 459 MB/s)", rows))

    robo, raid = point["robustore"], point["raid0"]
    print(
        f"\nRobuSTore vs RAID-0: {robo.bandwidth_mbps / raid.bandwidth_mbps:.1f}x "
        f"bandwidth (paper ~15x), "
        f"{raid.latency_std_s / max(robo.latency_std_s, 1e-9):.1f}x lower latency "
        f"std-dev (paper ~5x)"
    )


if __name__ == "__main__":
    main()
