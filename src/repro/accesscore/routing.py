"""Request/response routing and fixed access costs — one wiring site.

The per-disk request and the block payloads cross the network through
these helpers, which route through the link's fault timeline when one is
active.  Both engines (closed-form and event-driven) call them, so link
degradation and filer-crash blackouts are wired into the simulator exactly
once.  :func:`request_arrivals` and :func:`response_arrivals` are the same
routes over all of an access's disks at once.

The cancel is not routed: both engines send it as a plain one-way hop,
``t_done + one_way_s`` in :func:`repro.accesscore.timeline.finalize_read`
and ``SpeculativeRatelessWrite.commit``, ``t_dec + one_way`` in the closed
form's adaptive hand-off, and a ``one_way_s`` timeout in the event engine's
cancels and hand-offs.  So a link degradation or a filer-crash blackout
never delays a cancel.
"""

from __future__ import annotations

import numpy as np

MB = 1 << 20

#: LT decode bandwidth used to charge the decode tail (§6.2.5: "we use
#: [500 MBps] to compute decode times").
DECODE_BANDWIDTH_BPS = 500e6


def request_arrival_time(cluster, disk_id: int, t_send: float, one_way_s: float) -> float:
    """When a request sent at ``t_send`` reaches the disk's filer.

    Routes through the link's fault timeline when one is active (added
    latency inside a degradation window, deferral across a filer-crash
    blackout); otherwise the plain one-way hop — same arithmetic, so
    unfaulted runs stay bit-identical.
    """
    lt = cluster.link_timeline(disk_id)
    if lt is None:
        return t_send + one_way_s
    return lt.request_arrival(t_send, one_way_s)


def response_arrival_times(cluster, disk_id: int, ready, one_way_s: float):
    """Client arrival time(s) for payload(s) ready at the filer at ``ready``."""
    lt = cluster.link_timeline(disk_id)
    if lt is None:
        return ready + one_way_s
    return lt.response_arrivals(ready, one_way_s)


def one_way_times(cluster, disk_ids) -> np.ndarray:
    """Each disk's one-way link latency (its filer's link), as an array."""
    per_filer = np.array([f.link.one_way_s for f in cluster.filers])
    return per_filer[np.asarray(disk_ids, dtype=np.int64) // cluster.disks_per_filer]


def request_arrivals(cluster, disk_ids, t_send: float, one_way_s: np.ndarray) -> np.ndarray:
    """:func:`request_arrival_time` for each of an access's disks.

    One array sum for every disk; a disk whose link has a fault timeline
    takes the timeline's route, as the one-disk helper does.
    """
    out = t_send + one_way_s
    if cluster.faults is not None:
        for i, disk_id in enumerate(disk_ids):
            lt = cluster.link_timeline(disk_id)
            if lt is not None:
                out[i] = lt.request_arrival(t_send, float(one_way_s[i]))
    return out


def response_arrivals(cluster, disk_ids, ready: np.ndarray, counts, one_way_s) -> np.ndarray:
    """:func:`response_arrival_times` for a flat array of payloads.

    ``ready`` holds ``counts[i]`` payloads from ``disk_ids[i]``, disk by
    disk.  One array sum for every disk; a disk whose link has a fault
    timeline takes the timeline's route.
    """
    out = ready + np.repeat(one_way_s, counts)
    if cluster.faults is not None:
        end = 0
        for disk_id, n, one_way in zip(disk_ids, counts, one_way_s):
            end += n
            lt = cluster.link_timeline(disk_id)
            if lt is not None and n:
                out[end - n : end] = lt.response_arrivals(ready[end - n : end], float(one_way))
    return out


def decode_tail_s(block_bytes: int) -> float:
    """Latency charged for decoding the final block (§6.2.5)."""
    return block_bytes / DECODE_BANDWIDTH_BPS


def open_latency_s(metadata) -> float:
    """Metadata + connection setup cost at access start."""
    return metadata.latency_s if metadata is not None else 0.005
