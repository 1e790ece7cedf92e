"""§6.3.1 experiments: performance variation from in-disk data layout.

Each function reproduces one x-axis sweep and yields the three metrics the
paper plots for it (bandwidth, latency std-dev, I/O overhead), i.e. one
function covers a *triplet* of paper figures.
"""

from __future__ import annotations

from repro.accesscore.routing import MB
from repro.experiments import config as C
from repro.experiments.harness import ExperimentResult, TrialPlan, sweep


def fig6_06(
    disk_counts=(2, 4, 8, 16, 32, 64, 128), seed: int = 0
) -> ExperimentResult:
    """Figs 6-6/6-7/6-8: read vs number of disks, heterogeneous layout."""
    return sweep(
        "fig6_06",
        "Read vs number of disks (heterogeneous layout)",
        "#disks",
        list(disk_counts),
        lambda h: TrialPlan(access=C.baseline_access(n_disks=h), mode="read", seed=seed),
    )


def fig6_09(
    block_mbs=(0.5, 1, 2, 4, 8, 16, 32, 64), seed: int = 0
) -> ExperimentResult:
    """Figs 6-9/6-10/6-11: read vs coding block size."""
    return sweep(
        "fig6_09",
        "Read vs block size (heterogeneous layout)",
        "block (MB)",
        list(block_mbs),
        lambda mb: TrialPlan(
            access=C.baseline_access(block_bytes=int(mb * MB)), mode="read", seed=seed
        ),
    )


def fig6_12(
    rtts_ms=(1, 5, 10, 25, 50, 100), data_mb: int | None = None, seed: int = 0
) -> ExperimentResult:
    """Figs 6-12/6-13/6-14: read vs network latency.

    Run once at the baseline size and once at 128 MB to see RRAID-A's
    multi-RTT sensitivity grow for small requests (Fig 6-12b).
    """
    access = C.baseline_access() if data_mb is None else C.baseline_access(
        data_bytes=data_mb * MB
    )
    label = f"{access.data_bytes // MB} MB access"
    return sweep(
        f"fig6_12_{access.data_bytes // MB}mb",
        f"Read vs network RTT ({label})",
        "RTT (ms)",
        list(rtts_ms),
        lambda ms: TrialPlan(access=access, mode="read", rtt_s=ms / 1000.0, seed=seed),
    )


REDUNDANCIES = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0)


def fig6_15(redundancies=REDUNDANCIES, seed: int = 0) -> ExperimentResult:
    """Figs 6-15/6-16/6-17: read vs degree of data redundancy."""
    return sweep(
        "fig6_15",
        "Read vs data redundancy (heterogeneous layout)",
        "redundancy D",
        list(redundancies),
        lambda d: TrialPlan(access=C.baseline_access(redundancy=d), mode="read", seed=seed),
    )


def fig6_18(redundancies=REDUNDANCIES, seed: int = 0) -> ExperimentResult:
    """Figs 6-18/6-19/6-20: write vs degree of data redundancy."""
    return sweep(
        "fig6_18",
        "Write vs data redundancy (heterogeneous layout)",
        "redundancy D",
        list(redundancies),
        lambda d: TrialPlan(access=C.baseline_access(redundancy=d), mode="write", seed=seed),
    )


def fig6_21(
    redundancies=(0.5, 1.0, 2.0, 3.0, 5.0, 7.0), seed: int = 0
) -> ExperimentResult:
    """Figs 6-21/6-22/6-23: read-after-write (unbalanced striping)."""
    return sweep(
        "fig6_21",
        "Read after speculative write vs redundancy (unbalanced striping)",
        "redundancy D",
        list(redundancies),
        lambda d: TrialPlan(access=C.baseline_access(redundancy=d), mode="raw", seed=seed),
    )
