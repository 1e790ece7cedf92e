"""Experiment configuration (§6.2.5) and environment knobs.

The paper's baseline: 64 disks out of a 128-disk pool (8 per filer), 1 ms
RTT, 1 MB blocks, 3x data redundancy, 1 GB accesses, 100 trials per point.

Environment knobs (for quick runs vs full paper-scale runs):

``REPRO_TRIALS``
    Trials per configuration point (default 20; the paper uses 100).
``REPRO_DATA_MB``
    Access size in MB (default 1024, the paper's 1 GB).
``REPRO_ENGINE``
    Simulation engine for every access: ``closed`` (vectorised closed
    form, the default) or ``event`` (the event-driven reference engine).
"""

from __future__ import annotations

import os

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB

#: Disk pool size (§6.2.5).
POOL_DISKS = 128
#: Disks per filer (§6.2.5).
DISKS_PER_FILER = 8
#: Baseline round-trip latency.
BASELINE_RTT_S = 0.001
#: Filesystem cache per filer when caching is enabled (§6.2.5).
FS_CACHE_BYTES = 2 << 30
#: Background-workload interval range explored by §6.2.5 (seconds).
BG_INTERVAL_RANGE_S = (0.006, 0.200)


def trials(default: int = 20) -> int:
    """Trials per point (``REPRO_TRIALS`` overrides)."""
    return int(os.environ.get("REPRO_TRIALS", default))


def data_mb(default: int = 1024) -> int:
    """Access size in MB (``REPRO_DATA_MB`` overrides)."""
    return int(os.environ.get("REPRO_DATA_MB", default))


def engine(default: str = "closed") -> str:
    """Simulation engine for every access (``REPRO_ENGINE`` overrides)."""
    value = os.environ.get("REPRO_ENGINE", default)
    if value not in ("closed", "event"):
        raise ValueError(f"unknown engine {value!r} (expected closed|event)")
    return value


def baseline_access(**overrides) -> AccessConfig:
    """The §6.2.5 baseline access configuration, with overrides."""
    base = dict(
        data_bytes=data_mb() * MB,
        block_bytes=1 * MB,
        n_disks=64,
        redundancy=3.0,
        lt_c=1.0,
        lt_delta=0.5,
    )
    base.update(overrides)
    return AccessConfig(**base)


#: The four schemes, in the order the paper's figures list them.
ALL_SCHEMES = ("raid0", "rraid-s", "rraid-a", "robustore")
