"""Layout planning: mapping blocks onto disks (Fig 6-1).

* ``rotated_replicas`` — RRAID-S / RRAID-A: replica ``r`` of block ``i`` on
  disk ``(i + r) mod H``, stored grouped by replica then block.  At one
  replica (D = 0) it is RAID-0's stripe: block ``i`` on disk ``i mod H``.
* ``coded_balanced`` — RobuSTore balanced write: N coded blocks dealt
  round-robin across the disks.

Placements are lists (one per disk, aligned with the access's disk list) of
block ids in the disk's stored order — the order a speculative read streams
them back in.
"""

from __future__ import annotations

Placement = list[list[int]]


def rotated_replicas(k: int, replicas: int, n_disks: int) -> Placement:
    """Replica ``r`` of block ``i`` on disk ``(i + r) mod H`` (§6.2.1).

    Coded-block id convention matches
    :class:`repro.coding.replication.ReplicationCode`: replica ``r`` of
    block ``i`` is id ``r * k + i``.
    """
    if n_disks < 1 or replicas < 1:
        raise ValueError("need at least one disk and one replica")
    placement: Placement = [[] for _ in range(n_disks)]
    for r in range(replicas):
        for i in range(k):
            placement[(i + r) % n_disks].append(r * k + i)
    return placement


def rotated_replicas_fractional(
    k: int, redundancy: float, n_disks: int
) -> Placement:
    """Rotated replication at *arbitrary* redundancy (§6.2.1).

    RRAID-S "allows arbitrary redundancy": D full replica rounds plus a
    partial round covering the first ``frac * k`` blocks, each round
    rotated one disk further.  ``redundancy`` is D = copies - 1, so 0.0
    means a single copy and 2.5 means three full copies plus half a round.
    """
    if redundancy < 0:
        raise ValueError("redundancy must be >= 0")
    full = int(redundancy) + 1
    partial_blocks = int(round((redundancy - int(redundancy)) * k))
    placement = rotated_replicas(k, full, n_disks)
    for i in range(partial_blocks):
        placement[(i + full) % n_disks].append(full * k + i)
    return placement


def coded_balanced(n_coded: int, n_disks: int) -> Placement:
    """Deal N erasure-coded blocks round-robin across the disks."""
    if n_disks < 1:
        raise ValueError("need at least one disk")
    placement: Placement = [[] for _ in range(n_disks)]
    for j in range(n_coded):
        placement[j % n_disks].append(j)
    return placement
