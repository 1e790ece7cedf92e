"""Scheme-level read tracing — the access-core's single trace wiring site.

Both dispatch engines (speculative and adaptive) and the event-driven
wrapper describe a finished read with the same event sequence:
read counter, byte ledger (consumed/data, plus network for engines that
account it inline), the open span, and either the whole-access read span
or the failed-read instant.  :func:`trace_read_summary` emits that
sequence once, in the exact order the goldens pinned; the thin wrappers
only choose which optional pieces apply.  Adaptive hand-offs are traced
by :func:`trace_handoff`, for both engines.
"""

from __future__ import annotations

import numpy as np

#: Cap on sampled points per counter series — traces stay compact while the
#: report's queue-depth / in-flight histograms keep their shape.
_COUNTER_SAMPLES = 8


def _sample_indices(n: int, cap: int = _COUNTER_SAMPLES) -> np.ndarray:
    """Up to ``cap`` evenly spaced indices into a length-``n`` series."""
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    if n <= cap:
        return np.arange(n, dtype=np.int64)
    return np.unique(np.linspace(0, n - 1, cap).astype(np.int64))


def trace_read_summary(
    tracer,
    scheme_name: str,
    trial: int,
    t_open: float,
    t_done: float,
    consumed: int,
    block_bytes: int,
    data_bytes: int,
    *,
    network_bytes: int | None = None,
    span_args: dict | None = None,
    failed_instant: bool = True,
) -> None:
    """The shared scheme-level read summary (counter, ledger, spans).

    ``network_bytes`` is emitted right after the read counter when given
    (the adaptive engine accounts network inline; the speculative engine
    accounts it in :func:`repro.accesscore.timeline.finalize_read`).
    ``span_args`` extends the read span's args (e.g. the adaptive round
    count); ``failed_instant`` controls whether an unfinished read also
    emits the ``:failed`` instant before the failure counter.
    """
    if not tracer.enabled:
        return
    tracer.count("scheme.reads")
    if network_bytes is not None:
        tracer.account_bytes("network", network_bytes)
    tracer.account_bytes("consumed", consumed * block_bytes)
    tracer.account_bytes("data", data_bytes)
    tracer.span("scheme.open", "scheme", 0.0, t_open, track="scheme")
    name = f"scheme.read:{scheme_name}"
    if np.isfinite(t_done):
        args = {"trial": trial, "blocks_consumed": consumed}
        if span_args:
            args.update(span_args)
        tracer.span(name, "scheme", 0.0, t_done, track="scheme", args=args)
    else:
        if failed_instant:
            tracer.instant(
                f"{name}:failed", "scheme", t_open, track="scheme",
                args={"trial": trial},
            )
        tracer.count("scheme.failed_reads")


def trace_handoff(tracer, t: float, round_no: int, thief, victim, eligible) -> None:
    """One adaptive hand-off: the idle ``thief`` disk re-requests part of
    the ``victim``'s queue, opening request round ``round_no`` (§6.2.1)."""
    if not tracer.enabled:
        return
    tracer.count("scheme.handoffs")
    args = {"round": round_no, "thief": thief, "victim": victim, "eligible": eligible}
    tracer.instant("scheme.round", "scheme", t, track="scheme", args=args)


def trace_disk_queue(tracer, stream, t_send: float, t_arrive: float) -> None:
    """One disk's part of a closed-form read: the request hop, the queue
    span and its queue-depth samples (``tracer.detail`` adds a span per
    block).  ``stream`` is the disk's
    :class:`~repro.accesscore.timeline.DiskStream`."""
    if not tracer.enabled:
        return
    disk_id, blocks, completions = stream.disk_id, stream.block_ids, stream.completions
    n_uncached = int(completions.size)
    tracer.span(
        "filer.request",
        "filer",
        t_send,
        t_arrive,
        track="filer",
        args={"disk": disk_id, "blocks": int(blocks.size)},
    )
    last = float(completions[-1]) if completions.size else t_arrive
    if not np.isfinite(last):
        return
    tracer.span(
        "drive.queue",
        "drive",
        t_arrive,
        last,
        track="drive",
        args={"disk": disk_id, "queued": n_uncached, "cached": int(blocks.size) - n_uncached},
    )
    for i in _sample_indices(completions.size):
        tracer.counter(
            "drive.queue_depth", float(completions[i]), n_uncached - (i + 1), track="drive"
        )
    if tracer.detail and completions.size:
        starts = np.concatenate([[t_arrive], completions[:-1]])
        for bid, t0b, t1b in zip(blocks[~stream.cached], starts, completions):
            tracer.span(
                "drive.block",
                "drive",
                float(t0b),
                float(t1b),
                track=f"disk{disk_id}",
                args={"block": int(bid)},
            )


def trace_read_access(
    tracer,
    scheme_name: str,
    trial: int,
    streams: list,
    t_open: float,
    t_done: float,
    consumed: int,
    block_bytes: int,
    data_bytes: int,
) -> None:
    """Record the scheme-level view of one read access.

    Emits the open + whole-access spans, samples the client's in-flight
    block count over the access, and feeds the byte ledger the two numbers
    the :class:`repro.obs.TraceReport` reconciliation rests on: ``consumed``
    (bytes the client used) and ``data`` (bytes it asked for).  The
    ``network`` side of the ledger is accounted in
    :func:`repro.accesscore.timeline.finalize_read`.
    """
    if not tracer.enabled:
        return
    trace_read_summary(
        tracer, scheme_name, trial, t_open, t_done, consumed,
        block_bytes, data_bytes,
    )
    total = sum(int(s.block_ids.size) for s in streams)
    if total:
        times = np.sort(np.concatenate([s.arrivals for s in streams]))
        times = times[np.isfinite(times)]
        for i in _sample_indices(times.size):
            tracer.counter(
                "client.inflight", float(times[i]), total - (i + 1), track="client"
            )
