"""The access timeline: serve, consume, cancel, account — engine-shared.

Implements the speculative-access timeline of §4.1.2/§6.2.2:

1. open: metadata access (constant 5 ms);
2. one request message per disk (one-way link latency);
3. each disk serves its stored blocks in order (filesystem-cache hits are
   served by the filer immediately); background workloads interleave;
4. block payloads travel back (one-way latency, plentiful bandwidth);
5. the client consumes arrivals in order until the scheme's completion
   tracker is satisfied (all blocks / replica coverage / LT decode);
6. a cancel message (one-way latency) stops still-queued blocks; blocks
   already served or in flight count toward the I/O-overhead metric.

The closed-form engine evaluates steps 2-4 in one array pass over the
access's disks (:func:`serve_read_queues`); the event-driven engine
(:mod:`repro.accesscore.events`) produces the same per-disk
:class:`DiskStream` records from explicit processes.  Steps 5-6 — tracker
consumption, cancel accounting, tracing, repair annotation — are shared
outright: both engines settle a speculative read through
:func:`read_epilogue` and an adaptive (work-stealing) read through
:func:`adaptive_epilogue`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.accesscore.result import AccessResult
from repro.accesscore.routing import one_way_times, request_arrivals, response_arrivals
from repro.accesscore.tracing import (
    trace_disk_queue,
    trace_read_access,
    trace_read_summary,
)
from repro.disk.service import served_counts


@dataclass
class DiskStream:
    """One disk's contribution to an access."""

    disk_id: int
    block_ids: np.ndarray          # stored order
    cached: np.ndarray             # mask aligned with block_ids
    completions: np.ndarray        # disk completion time of uncached blocks
    arrivals: np.ndarray           # client arrival time, aligned w/ block_ids
    one_way_s: float


def serve_read_queues(
    cluster,
    disk_ids,
    placement: list[list[int]],
    block_bytes: int,
    t_send: float,
    rng_for,
    file_name: str = "",
) -> list[DiskStream]:
    """Run every disk's stored queue in one array pass; return per-disk streams.

    ``rng_for(disk_id)`` supplies each disk's random stream.  Cached blocks
    are served by the filer at request-arrival time; the rest queue at the
    disk in stored order.  Filer caches are probed and the tracer is fed
    disk by disk; the sampling, the queues' running sums and the network
    hops run once over all disks (:meth:`Cluster.block_service`).
    """
    ids = [int(d) for d in disk_ids]
    sizes = [len(p) for p in placement]
    bounds = np.cumsum([0] + sizes).tolist()
    block_ids = np.fromiter(chain.from_iterable(placement), np.int64, bounds[-1])
    cached = np.zeros(block_ids.size, dtype=bool)
    queued = sizes
    if disk_by_disk(cluster):
        queued = []
        for d, a, b in zip(ids, bounds, bounds[1:]):
            cached[a:b] = cluster.filer_of_disk(d).cached_blocks(file_name, block_ids[a:b])
            queued.append(b - a - int(np.count_nonzero(cached[a:b])))
    one_way = one_way_times(cluster, ids)
    t_arrive = request_arrivals(cluster, ids, t_send, one_way)
    svc = cluster.block_service(
        ids, [rng_for(d) for d in ids], getattr(rng_for, "phase_rng_for", None)
    )
    completions = svc.serve(queued, block_bytes, t_arrive)
    ready = completions
    if completions.size < block_ids.size:
        # The filer answers cache hits when the request reaches it.
        ready = np.repeat(t_arrive, sizes)
        ready[~cached] = completions
    arrivals = response_arrivals(cluster, ids, ready, sizes, one_way)
    ends = np.cumsum(queued).tolist()
    streams = [
        DiskStream(
            d, block_ids[a:b], cached[a:b], completions[e - n : e], arrivals[a:b], ow
        )
        for d, a, b, e, n, ow in zip(
            ids, bounds, bounds[1:], ends, queued, one_way.tolist()
        )
    ]
    if cluster.tracer.enabled:
        for s, t_req in zip(streams, t_arrive.tolist()):
            trace_disk_queue(cluster.tracer, s, t_send, t_req)
    return streams


def disk_by_disk(cluster) -> bool:
    """Whether an access's bookkeeping must visit its disks one by one:
    the tracer records per-disk events, and filer caches keep LRU state."""
    return cluster.tracer.enabled or any(f.cache is not None for f in cluster.filers)


def account_links(cluster, disk_ids, nbytes) -> None:
    """Add each disk's payload bytes to its filer's link counter, one
    sum per filer."""
    per_filer = np.bincount(
        np.asarray(disk_ids, dtype=np.int64) // cluster.disks_per_filer,
        weights=nbytes,
        minlength=cluster.n_filers,
    )
    for filer, n in zip(cluster.filers, per_filer.tolist()):
        if n:
            filer.link.account(n)


def merged_arrival_order(
    streams: list[DiskStream],
    block_bytes: int = 0,
    client_bandwidth_bps: float = float("inf"),
) -> tuple[np.ndarray, np.ndarray]:
    """All (arrival time, block id) pairs across disks, time-sorted.

    With a finite client NIC rate, consecutive arrivals additionally
    serialise through the access link: arrival i completes no earlier than
    one block-transfer after arrival i-1 finished draining.
    """
    if not streams:
        return np.empty(0), np.empty(0, dtype=np.int64)
    times = np.concatenate([s.arrivals for s in streams])
    ids = np.concatenate([s.block_ids for s in streams])
    order = np.argsort(times, kind="stable")
    times, ids = times[order], ids[order]
    if np.isfinite(client_bandwidth_bps) and block_bytes > 0 and times.size:
        xfer = block_bytes / client_bandwidth_bps
        drained = np.empty_like(times)
        prev = -np.inf
        for i, t in enumerate(times):
            prev = max(t, prev + xfer) if np.isfinite(t) else t
            drained[i] = prev
        times = drained
    return times, ids


def consume_sorted_arrivals(tracker, times: np.ndarray, ids: np.ndarray) -> tuple[float, int]:
    """Feed a time-sorted arrival vector to ``tracker``.

    Returns ``(t_fill, consumed)`` — ``(inf, len)`` when the vector never
    completes the tracker.  The one consumption loop behind both closed-form
    dispatchers: trackers exposing a batched ``consume_arrivals`` take the
    vectorised fast path; the rest run the scalar ``observe``/``add`` loop.

    The class-level lookup is on purpose: recording/tracing proxies that
    forward attribute access to an inner tracker must keep the scalar loop,
    or their ``observe()`` hook would be silently bypassed.
    """
    consume = getattr(type(tracker), "consume_arrivals", None)
    if consume is not None and times.size:
        # Batched fast path (AllBlocks/Coverage trackers): same
        # (t_fill, consumed) as the scalar loop, proven element-for-element
        # by tests/test_trackers_batch.py.
        return consume(tracker, times, ids)
    observe = getattr(tracker, "observe", None)
    for consumed, (t, bid) in enumerate(zip(times, ids), start=1):
        if observe is not None:
            observe(float(t), int(bid))
        else:
            tracker.add(int(bid))
        if tracker.complete:
            return float(t), consumed
    return float("inf"), int(times.size)


def completion_with_order(
    streams: list[DiskStream],
    tracker,
    block_bytes: int = 0,
    client_bandwidth_bps: float = float("inf"),
) -> tuple[float, int, list[int]]:
    """Feed arrivals to ``tracker``; return (finish time, blocks consumed,
    consumed block ids in arrival order).

    The finish time is ``inf`` if the access can never complete with the
    queued blocks (insufficient redundancy reached the disks).  The data-path
    API replays real decoding with the consumed ids.

    Trackers exposing ``observe(t, block_id)`` (the
    :class:`repro.accesscore.trackers.TrackerBase` hook) are fed the arrival
    time too; plain ``add``-only trackers keep working unchanged.
    """
    times, ids = merged_arrival_order(streams, block_bytes, client_bandwidth_bps)
    t_fill, consumed = consume_sorted_arrivals(tracker, times, ids)
    if tracker.complete:
        # t_fill may be inf (completed by a never-arriving block on a
        # failed disk) — completion, not time, decides the slice.
        return t_fill, consumed, [int(b) for b in ids[:consumed]]
    return float("inf"), int(times.size), [int(b) for b in ids]


def finalize_read(
    streams: list[DiskStream],
    cluster,
    t_done: float,
    block_bytes: int,
    file_name: str = "",
) -> tuple[int, int, int]:
    """Cancel outstanding work at ``t_done``; account transferred bytes.

    Returns (network bytes, disk blocks read, filesystem-cache hits).
    The cancel message reaches each disk one one-way latency after
    ``t_done``; blocks completed or in flight by then were transferred.
    The counts run once over all streams; the tracer and the filer caches
    are fed stream by stream.
    """
    if not streams:
        return 0, 0, 0
    t_cancel = t_done + np.array([s.one_way_s for s in streams])
    served = served_counts([s.completions for s in streams], t_cancel)
    sizes = [s.block_ids.size for s in streams]
    n_cached = np.bincount(
        np.repeat(np.arange(len(streams)), sizes),
        weights=np.concatenate([s.cached for s in streams]),
        minlength=len(streams),
    ).astype(np.int64)
    sent = served + n_cached
    disk_ids = [s.disk_id for s in streams]
    account_links(cluster, disk_ids, sent * block_bytes)
    if disk_by_disk(cluster):
        tracer = cluster.tracer
        for s, t, n_served, n_sent in zip(
            streams, t_cancel.tolist(), served.tolist(), sent.tolist()
        ):
            if tracer.enabled:
                cancelled = int(s.block_ids.size) - n_sent
                tracer.account_bytes("network", n_sent * block_bytes)
                tracer.instant(
                    "scheme.cancel",
                    "scheme",
                    t,
                    track="scheme",
                    args={"disk": s.disk_id, "sent": n_sent, "cancelled": cancelled},
                )
                if cancelled > 0:
                    tracer.count("scheme.blocks_cancelled_in_queue", cancelled)
            filer = cluster.filer_of_disk(s.disk_id)
            # Blocks that came off the platters populate the filesystem cache.
            filer.record_read(file_name, s.block_ids[~s.cached][:n_served], block_bytes)
            filer.record_read(file_name, s.block_ids[s.cached], block_bytes)
    else:
        # No cache: every block served off the platters is a disk read.
        per_filer = np.bincount(
            np.asarray(disk_ids) // cluster.disks_per_filer,
            weights=served,
            minlength=cluster.n_filers,
        )
        for filer, n in zip(cluster.filers, per_filer.tolist()):
            filer.disk_bytes_read += int(n) * block_bytes
    return int(sent.sum()) * block_bytes, int(served.sum()), int(n_cached.sum())


def read_epilogue(
    scheme,
    spec,
    record,
    plan,
    trial: int,
    streams: list[DiskStream],
    tracker,
    t_fill: float,
    consumed: int,
    order: list[int],
    rounds: int,
    t_open: float,
) -> AccessResult:
    """Settle a read whose arrival timeline is known — engine-shared.

    The one place completion conversion, cancel accounting, scheme-level
    tracing, completion extras/trace, arrival-order capture and the fault
    reaction's repair annotation are wired: the speculative closed-form
    dispatcher calls it with vectorised streams, the event-driven engine
    with streams reconstructed from its processes.  Policy objects arrive
    duck-typed so this module never imports :mod:`repro.core`.
    """
    cfg = scheme.config
    completion = spec.completion
    t_done, t_cancel = completion.finish(scheme, tracker, t_fill)
    net, disk_blocks, hits = finalize_read(
        streams, scheme.cluster, t_cancel, cfg.block_bytes, record.name
    )
    trace_read_access(
        scheme.tracer, scheme.name, trial, streams, t_open, t_done, consumed,
        cfg.block_bytes, cfg.data_bytes,
    )
    completion.trace(scheme.tracer, tracker, t_fill, t_done, consumed)
    extra = dict(plan.extra)
    extra.update(completion.extras(scheme, tracker, t_fill, t_done))
    if completion.wants_order:
        # The block ids the client consumed, in arrival order — the
        # data-path API replays real payload decoding with it.
        extra["arrival_order"] = order
    spec.reaction.annotate(scheme, record, extra, t_done, t_open)
    return AccessResult(
        latency_s=t_done,
        data_bytes=cfg.data_bytes,
        network_bytes=net,
        disk_blocks=disk_blocks,
        blocks_received=consumed,
        cache_hits=hits,
        rounds=rounds,
        extra=extra,
    )


def adaptive_epilogue(
    scheme, spec, record, plan, trial: int,
    tracker, t_fill: float, consumed: int, order: list[int], rounds: int,
    t_open: float, *, disk_sent: list[float], blocks_sent: int, cache_hits: int,
    partial_bytes: float = 0.0, served_by: dict | None = None,
) -> AccessResult:
    """Settle an adaptive (work-stealing) read — engine-shared.

    The twin of :func:`read_epilogue` for reads that hand work between
    disks instead of cancelling at completion.  ``blocks_sent`` counts
    whole blocks sent (filesystem-cache hits included), ``partial_bytes``
    the block fractions victims delivered before a mid-transfer hand-off,
    and ``disk_sent[i]`` the bytes of both that ``plan.disk_ids[i]`` sent.
    ``served_by`` (block -> disk index) lands in the extras when given.
    """
    cfg = scheme.config
    completion = spec.completion
    t_done, _ = completion.finish(scheme, tracker, t_fill)
    # Fetched blocks cross the network once; block fractions delivered
    # by a victim before a hand-off add a whisker of extra bytes — the
    # scheme's "just a little more than zero" overhead (Fig 6-8).
    net_bytes = int(blocks_sent * cfg.block_bytes + partial_bytes)
    # Each link carries what its disk sent.  Link counters hold whole
    # bytes, so the last one also takes the rounding remainder of the
    # fractions: the links then sum to the access's network bytes.
    shares = [int(b) for b in disk_sent]
    if shares:
        shares[-1] += net_bytes - sum(shares)
    for disk_id, nbytes in zip(plan.disk_ids, shares):
        scheme.cluster.filer_of_disk(int(disk_id)).link.account(nbytes)
    trace_read_summary(
        scheme.tracer, scheme.name, trial, t_open, t_done, consumed,
        cfg.block_bytes, cfg.data_bytes,
        network_bytes=net_bytes,
        span_args={"rounds": rounds},
        failed_instant=False,
    )
    completion.trace(scheme.tracer, tracker, t_fill, t_done, consumed)
    extra = dict(plan.extra)
    extra.update(completion.extras(scheme, tracker, t_fill, t_done))
    extra["handoffs"] = rounds - 1
    if served_by is not None:
        extra["served_by"] = served_by
    if completion.wants_order:
        extra["arrival_order"] = order
    spec.reaction.annotate(scheme, record, extra, t_done, t_open)
    return AccessResult(
        latency_s=t_done,
        data_bytes=cfg.data_bytes,
        network_bytes=net_bytes,
        disk_blocks=blocks_sent - cache_hits,
        blocks_received=consumed,
        cache_hits=cache_hits,
        rounds=rounds,
        extra=extra,
    )


def simulate_uniform_write(
    cluster,
    disk_ids,
    placement: list[list[int]],
    block_bytes: int,
    t_send: float,
    rng_for,
    file_name: str = "",
) -> tuple[float, int]:
    """Write the same stored queues to every disk; wait for all commits.

    RAID-0 / RRAID-S / RRAID-A writes are uniform: completion is gated by
    the slowest disk (§6.3.1).  Returns (completion time at client, bytes
    over the network); the completion time is ``inf`` when any written-to
    disk fail-stops before committing (the write never fully acks).
    Write-through populates the filesystem caches.  The queues run in one
    array pass, as :func:`serve_read_queues` runs a read's.
    """
    ids = [int(d) for d in disk_ids]
    sizes = [len(p) for p in placement]
    bounds = np.cumsum([0] + sizes).tolist()
    one_way = one_way_times(cluster, ids)
    t_arrive = request_arrivals(cluster, ids, t_send, one_way)
    svc = cluster.block_service(
        ids, [rng_for(d) for d in ids], getattr(rng_for, "phase_rng_for", None)
    )
    completions = svc.serve(sizes, block_bytes, t_arrive)
    # Each writing disk acks once, when its last block commits.
    busy = [i for i, n in enumerate(sizes) if n]
    last = completions[np.array(bounds[1:], dtype=np.int64)[busy] - 1]
    acks = response_arrivals(
        cluster, [ids[i] for i in busy], last, [1] * len(busy), one_way[busy]
    )
    t_done = max(t_send, float(acks.max())) if busy else t_send
    nbytes = np.array(sizes, dtype=np.int64) * block_bytes
    account_links(cluster, ids, nbytes)
    if disk_by_disk(cluster):
        tracer = cluster.tracer
        block_ids = np.fromiter(chain.from_iterable(placement), np.int64, bounds[-1])
        for d, a, b, t_req, n in zip(ids, bounds, bounds[1:], t_arrive.tolist(), nbytes.tolist()):
            if tracer.enabled:
                tracer.account_bytes("network", n)
                if b > a and np.isfinite(completions[b - 1]):
                    tracer.span(
                        "drive.write_queue",
                        "drive",
                        t_req,
                        float(completions[b - 1]),
                        track="drive",
                        args={"disk": d, "blocks": b - a},
                    )
            cluster.filer_of_disk(d).record_write(file_name, block_ids[a:b], block_bytes)
    return t_done, int(nbytes.sum())


def acks_incomplete(ack_times) -> bool:
    """True when some commit ack never arrives (a disk fail-stopped)."""
    return not np.all(np.isfinite(ack_times))


def failed_write_result(scheme, extra: dict) -> AccessResult:
    """The one shape of a failed write: infinite latency, nothing durable."""
    if scheme.tracer.enabled:
        scheme.tracer.count("scheme.failed_writes")
    return AccessResult(
        latency_s=float("inf"),
        data_bytes=scheme.config.data_bytes,
        network_bytes=0,
        disk_blocks=0,
        blocks_received=0,
        extra=extra,
    )
