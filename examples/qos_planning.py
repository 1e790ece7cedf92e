"""QoS-driven access planning (Appendix B + §5.3 sizing rules).

A scientific application opens a dataset with performance requirements;
the layout planner sizes the access (#disks, redundancy) from the pool
statistics, and the simulation shows the plan actually meeting the target.

Run:  python examples/qos_planning.py
"""

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.core.qos import DiskProfile, QoSOptions, plan_access
from repro.experiments.harness import TrialPlan, run_scheme
from repro.metrics.stats import summarize


def main() -> None:
    base = AccessConfig(data_bytes=512 * MB, block_bytes=1 * MB, n_disks=8)
    profile = DiskProfile(avg_bandwidth_mbps=16, peak_bandwidth_mbps=45, pool_size=128)

    for label, qos in [
        ("interactive visualisation (300 MB/s, tight jitter)",
         QoSOptions(target_bandwidth_mbps=300, max_latency_std_s=0.3)),
        ("bulk archival staging (modest bandwidth, cheap storage)",
         QoSOptions(target_bandwidth_mbps=60, redundancy_budget=1.0)),
    ]:
        cfg = plan_access(base, qos, profile)
        print(f"\n{label}")
        print(
            f"  planned: {cfg.n_disks} disks, redundancy D={cfg.redundancy:.1f}, "
            f"{cfg.block_bytes // MB} MB blocks"
        )
        summary = summarize(
            run_scheme(TrialPlan(access=cfg, mode="read", trials=10, seed=3), "robustore")
        )
        met = "MET" if summary.bandwidth_mbps >= qos.target_bandwidth_mbps else "missed"
        print(
            f"  simulated: {summary.bandwidth_mbps:.0f} MB/s "
            f"(target {qos.target_bandwidth_mbps:.0f} -> {met}), "
            f"latency {summary.latency_mean_s:.2f} ± {summary.latency_std_s:.2f} s"
        )


if __name__ == "__main__":
    main()
