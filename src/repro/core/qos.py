"""QoS-aware open (Appendix B).

An application opens a file with a QoS specification — a traffic profile
plus performance requirements — and the layout planner turns it into
access parameters: how many disks, how much redundancy, what block size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB


@dataclass(frozen=True)
class QoSOptions:
    """Appendix B's QoS dimensions (the ones the planner acts on).

    Attributes
    ----------
    target_bandwidth_mbps:
        Desired sustained access bandwidth; ``None`` means no bandwidth
        requirement.  Must be positive when given — a zero or negative
        target is a specification error, not a "don't care".
    max_latency_std_s:
        Bound on access-latency variation (robustness requirement).
    redundancy_budget:
        Maximum storage expansion the application will pay for (D).
        Must be positive: a non-positive budget cannot hold any coded
        redundancy and would silently plan a degenerate config.
    reserve_bytes:
        Capacity to reserve (traffic profile).
    priority:
        Admission-control priority (smaller = more urgent).
    """

    target_bandwidth_mbps: float | None = None
    max_latency_std_s: float = float("inf")
    redundancy_budget: float = 3.0
    reserve_bytes: int = 0
    priority: int = 0


@dataclass(frozen=True)
class DiskProfile:
    """The planner's knowledge of the pool (metadata-server statistics)."""

    avg_bandwidth_mbps: float = 15.0
    peak_bandwidth_mbps: float = 50.0
    pool_size: int = 128


def plan_access(
    base: AccessConfig, qos: QoSOptions, profile: DiskProfile | None = None
) -> AccessConfig:
    """Translate QoS requirements into an :class:`AccessConfig`.

    Applies the dissertation's two sizing rules:

    * §5.3.1 — #disks >= target bandwidth / average disk bandwidth;
    * §5.3.2 — redundancy D >= (1 + eps) * peak/average - 1, clipped to
      the application's budget.

    Raises
    ------
    ValueError
        For a non-positive ``redundancy_budget`` or ``target_bandwidth_mbps``
        — both would otherwise plan a degenerate config (no redundancy /
        zero disks) that fails far from the specification mistake.
    """
    if qos.redundancy_budget <= 0:
        raise ValueError(
            f"redundancy_budget must be positive, got {qos.redundancy_budget}"
            " (a non-positive budget cannot hold coded redundancy)"
        )
    if qos.target_bandwidth_mbps is not None and qos.target_bandwidth_mbps <= 0:
        raise ValueError(
            "target_bandwidth_mbps must be positive, got "
            f"{qos.target_bandwidth_mbps} (omit it, or pass None, for "
            "no bandwidth requirement)"
        )
    profile = profile or DiskProfile()
    cfg = base

    if qos.target_bandwidth_mbps is not None:
        need = max(
            1,
            -(-int(qos.target_bandwidth_mbps) // max(1, int(profile.avg_bandwidth_mbps))),
        )
        cfg = replace(cfg, n_disks=min(profile.pool_size, max(cfg.n_disks, need)))

    reception_eps = 0.5  # typical LT reception overhead (§5.2.4)
    d_needed = (1 + reception_eps) * (
        profile.peak_bandwidth_mbps / profile.avg_bandwidth_mbps
    ) - 1
    d = min(qos.redundancy_budget, max(0.0, d_needed))
    cfg = replace(cfg, redundancy=d)

    # Tight robustness targets favour smaller blocks (Fig 6-10).
    if qos.max_latency_std_s < 0.5 and cfg.block_bytes > 1 * MB:
        cfg = replace(cfg, block_bytes=1 * MB)
    return cfg
