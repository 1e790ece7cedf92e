"""Update access (§4.3.4): rewrite only the coded blocks a change touches.

With a near-optimal code, changing one original block affects only the
coded blocks adjacent to it in the coding graph (about the mean coded
degree — ~0.5 % of the encoded data at K=1024, N=4096).  The client
inspects the graph, regenerates those blocks, writes them to the disks
that hold them, and notifies the metadata server.
"""

from __future__ import annotations

import numpy as np

from repro.accesscore.result import AccessResult
from repro.accesscore.timeline import simulate_uniform_write
from repro.core.pipeline import PolicyScheme


def affected_blocks(scheme: PolicyScheme, file_name: str, original_ids) -> set[int]:
    """Coded-block ids that must be rewritten if ``original_ids`` change."""
    record = scheme.metadata.lookup(file_name)
    graph = record.extra["graph"]
    out: set[int] = set()
    for orig in original_ids:
        out.update(graph.affected_coded_blocks(int(orig)))
    stored = {b for p in record.placement for b in p}
    return out & stored


def update_access(
    scheme: PolicyScheme, file_name: str, original_ids, trial: int
) -> AccessResult:
    """Simulate an update of ``original_ids`` (§4.3.4's full procedure).

    The client (1) fetches the layout from the metadata server, (2) finds
    the affected coded blocks via the coding graph, (3) regenerates and
    rewrites them in place, and (4) updates the metadata record.
    """
    cfg = scheme.config
    record = scheme.metadata.lookup(file_name)
    targets = affected_blocks(scheme, file_name, original_ids)
    if not targets:
        return AccessResult(
            latency_s=2 * scheme.metadata.latency_s,
            data_bytes=0,
            network_bytes=0,
            disk_blocks=0,
            blocks_received=0,
        )

    # Group the rewrites per disk, preserving stored order.
    disk_ids = record.disk_ids
    placement = [[b for b in p if b in targets] for p in record.placement]
    t0 = scheme.open_latency()
    t_done, net = simulate_uniform_write(
        scheme.cluster,
        disk_ids,
        placement,
        cfg.block_bytes,
        t0,
        scheme.service_rng_factory(trial, "update", disk_ids),
        file_name,
    )
    scheme.metadata.update_placement(file_name, record.placement)
    changed_bytes = len(original_ids) * cfg.block_bytes
    return AccessResult(
        latency_s=t_done + scheme.metadata.latency_s,
        data_bytes=max(changed_bytes, 1),
        network_bytes=net,
        disk_blocks=len(targets),
        blocks_received=len(targets),
        extra={
            "affected_coded_blocks": len(targets),
            "affected_fraction": len(targets) / max(1, record.total_blocks),
        },
    )


def update_amplification(scheme: PolicyScheme, file_name: str, n_samples: int = 32) -> float:
    """Mean coded blocks rewritten per single-original-block update."""
    record = scheme.metadata.lookup(file_name)
    graph = record.extra["graph"]
    rng = np.random.default_rng(0)
    ks = rng.choice(graph.k, size=min(n_samples, graph.k), replace=False)
    counts = [len(affected_blocks(scheme, file_name, [int(i)])) for i in ks]
    return float(np.mean(counts))
