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

The closed-form engine evaluates steps 2-4 vectorised
(:func:`serve_read_queues`); the event-driven engine
(:mod:`repro.accesscore.events`) produces the same per-disk
:class:`DiskStream` records from explicit processes.  Steps 5-6 — tracker
consumption, cancel accounting, tracing, repair annotation — are shared
outright: both engines settle a speculative read through
:func:`read_epilogue` and an adaptive (work-stealing) read through
:func:`adaptive_epilogue`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accesscore.result import AccessResult
from repro.accesscore.routing import request_arrival_time, response_arrival_times
from repro.accesscore.tracing import (
    _sample_indices,
    trace_read_access,
    trace_read_summary,
)
from repro.disk.service import served_before

#: Adaptive reads stop re-planning after this many hand-offs per disk and
#: let the outstanding queues drain — a safety valve far above any sane
#: hand-off count, shared by both engines.
HANDOFF_BUDGET_PER_DISK = 50


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
    """Run every disk's stored queue; return per-disk streams.

    ``rng_for(disk_id)`` supplies each disk's random stream.  Cached blocks
    are served by the filer at request-arrival time; the rest queue at the
    disk in stored order.
    """
    streams: list[DiskStream] = []
    tracer = cluster.tracer
    phase_rng_for = getattr(rng_for, "phase_rng_for", None)
    for idx, disk_id in enumerate(disk_ids):
        disk_id = int(disk_id)
        filer = cluster.filer_of_disk(disk_id)
        blocks = np.asarray(placement[idx], dtype=np.int64)
        one_way = filer.link.one_way_s
        t_arrive = request_arrival_time(cluster, disk_id, t_send, one_way)
        cached = filer.cached_blocks(file_name, blocks)
        n_cached = int(np.count_nonzero(cached))
        n_uncached = blocks.size - n_cached
        svc = cluster.block_service(
            disk_id, rng_for(disk_id), phase_rng_for=phase_rng_for
        )
        completions = svc.serve(n_uncached, block_bytes, t_arrive)
        if n_cached == 0:
            # Common case (cold filesystem cache): every block queues at
            # the disk — same values as the masked assignment below.
            arrivals = np.asarray(
                response_arrival_times(cluster, disk_id, completions, one_way),
                dtype=np.float64,
            )
        else:
            arrivals = np.empty(blocks.size, dtype=np.float64)
            arrivals[cached] = response_arrival_times(
                cluster, disk_id, t_arrive, one_way
            )
            arrivals[~cached] = response_arrival_times(
                cluster, disk_id, completions, one_way
            )
        if tracer.enabled:
            tracer.span(
                "filer.request",
                "filer",
                t_send,
                t_arrive,
                track="filer",
                args={"disk": disk_id, "blocks": int(blocks.size)},
            )
            last = float(completions[-1]) if completions.size else t_arrive
            if np.isfinite(last):
                tracer.span(
                    "drive.queue",
                    "drive",
                    t_arrive,
                    last,
                    track="drive",
                    args={
                        "disk": disk_id,
                        "queued": n_uncached,
                        "cached": int(blocks.size) - n_uncached,
                    },
                )
                for i in _sample_indices(completions.size):
                    tracer.counter(
                        "drive.queue_depth",
                        float(completions[i]),
                        n_uncached - (i + 1),
                        track="drive",
                    )
                if tracer.detail and completions.size:
                    starts = np.concatenate([[t_arrive], completions[:-1]])
                    for bid, t0b, t1b in zip(
                        blocks[~cached], starts, completions
                    ):
                        tracer.span(
                            "drive.block",
                            "drive",
                            float(t0b),
                            float(t1b),
                            track=f"disk{disk_id}",
                            args={"block": int(bid)},
                        )
        streams.append(
            DiskStream(disk_id, blocks, cached, completions, arrivals, one_way)
        )
    return streams


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


def completion_time(
    streams: list[DiskStream],
    tracker,
    block_bytes: int = 0,
    client_bandwidth_bps: float = float("inf"),
) -> tuple[float, int]:
    """Feed arrivals to ``tracker``; return (finish time, blocks consumed).

    Returns ``(inf, consumed)`` if the access can never complete with the
    queued blocks (insufficient redundancy reached the disks).
    """
    t, consumed, _ = completion_with_order(
        streams, tracker, block_bytes, client_bandwidth_bps
    )
    return t, consumed


def completion_with_order(
    streams: list[DiskStream],
    tracker,
    block_bytes: int = 0,
    client_bandwidth_bps: float = float("inf"),
) -> tuple[float, int, list[int]]:
    """Like :func:`completion_time` but also returns the consumed block ids
    in arrival order (the data-path API replays real decoding with them).

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
    """
    network_bytes = 0
    disk_blocks = 0
    cache_hits = 0
    tracer = cluster.tracer
    for s in streams:
        t_cancel = t_done + s.one_way_s
        served = served_before(s.completions, t_cancel)
        n_cached = int(np.count_nonzero(s.cached))
        cache_hits += n_cached
        disk_blocks += served
        sent = served + n_cached
        nbytes = sent * block_bytes
        network_bytes += nbytes
        if tracer.enabled:
            cancelled = int(s.block_ids.size) - sent
            tracer.account_bytes("network", nbytes)
            tracer.instant(
                "scheme.cancel",
                "scheme",
                t_cancel,
                track="scheme",
                args={"disk": s.disk_id, "sent": sent, "cancelled": cancelled},
            )
            if cancelled > 0:
                tracer.count("scheme.blocks_cancelled_in_queue", cancelled)
        filer = cluster.filer_of_disk(s.disk_id)
        filer.link.account(nbytes)
        # Blocks that came off the platters populate the filesystem cache.
        uncached_ids = s.block_ids[~s.cached][:served]
        filer.record_read(file_name, uncached_ids, block_bytes)
        cached_ids = s.block_ids[s.cached]
        filer.record_read(file_name, cached_ids, block_bytes)
    return network_bytes, disk_blocks, cache_hits


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
    if spec.traced:
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
    Write-through populates the filesystem caches.
    """
    t_done = t_send
    network_bytes = 0
    tracer = cluster.tracer
    phase_rng_for = getattr(rng_for, "phase_rng_for", None)
    for idx, disk_id in enumerate(disk_ids):
        disk_id = int(disk_id)
        filer = cluster.filer_of_disk(disk_id)
        blocks = np.asarray(placement[idx], dtype=np.int64)
        one_way = filer.link.one_way_s
        svc = cluster.block_service(
            disk_id, rng_for(disk_id), phase_rng_for=phase_rng_for
        )
        t_arrive = request_arrival_time(cluster, disk_id, t_send, one_way)
        completions = svc.serve(blocks.size, block_bytes, t_arrive)
        if blocks.size:
            ack = response_arrival_times(
                cluster, disk_id, float(completions[-1]), one_way
            )
            t_done = max(t_done, float(ack))
        nbytes = blocks.size * block_bytes
        network_bytes += nbytes
        if tracer.enabled:
            tracer.account_bytes("network", nbytes)
            if blocks.size and np.isfinite(completions[-1]):
                tracer.span(
                    "drive.write_queue",
                    "drive",
                    t_arrive,
                    float(completions[-1]),
                    track="drive",
                    args={"disk": disk_id, "blocks": int(blocks.size)},
                )
        filer.link.account(nbytes)
        filer.record_write(file_name, blocks, block_bytes)
    return t_done, network_bytes


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
