"""Dispatch policies: how read requests go out and arrivals are consumed.

:class:`SpeculativeDispatch` is the one-shot engine behind RAID-0,
RRAID-S, RAID-0+1, RAID-5, RobuSTore and RobuSTore-RS: request every
planned block in a single round, consume arrivals until the completion
tracker is satisfied, cancel the rest.  :class:`AdaptiveDispatch` is the
multi-round work-stealing engine behind RRAID-A: request primaries only,
then hand work from struggling disks to drained ones, one round trip per
hand-off.

Both engines are completion-agnostic — the composition's completion
policy decides when "enough" has arrived and what decode tail follows —
and fault-reaction-agnostic — the reaction policy plans the read and, for
the speculative engine, may serve a second round after a stall.  The
timeline mechanics (serve, consume, cancel, account, trace) live in
:mod:`repro.accesscore`, and the adaptive read, whose rules the event
engine shares, in :mod:`repro.accesscore.adaptive`.
"""

from __future__ import annotations

import numpy as np

from repro.accesscore.adaptive import AdaptiveRead
from repro.accesscore.result import AccessResult
from repro.accesscore.timeline import completion_with_order, read_epilogue, serve_read_queues


class SpeculativeDispatch:
    """Single-round speculation: request everything, cancel at completion."""

    def read(self, scheme, spec, record, plan, trial) -> AccessResult:
        cfg = scheme.config
        completion = spec.completion
        t0 = scheme.open_latency()
        streams = serve_read_queues(
            scheme.cluster,
            plan.disk_ids,
            plan.placement,
            cfg.block_bytes,
            t0,
            scheme.service_rng_factory(trial, "read", plan.disk_ids),
            record.name,
        )
        tracker = completion.tracker(scheme, record, plan)
        t_fill, consumed, order = completion_with_order(
            streams, tracker, cfg.block_bytes, cfg.client_bandwidth_bps
        )
        rounds = 1
        if not np.isfinite(t_fill) and scheme.cluster.faults is not None:
            # Mid-read faults stalled the access: the reaction may build a
            # second round on the surviving (or recovered) disks.
            retry = spec.reaction.on_stall(scheme, streams, trial, record.name, t_fill)
            if retry is not None:
                streams = streams + retry
                tracker = completion.tracker(scheme, record, plan)
                t_fill, consumed, order = completion_with_order(
                    streams, tracker, cfg.block_bytes, cfg.client_bandwidth_bps
                )
                rounds = 2
                if scheme.tracer.enabled:
                    scheme.tracer.count("scheme.respeculations")
        return read_epilogue(
            scheme, spec, record, plan, trial,
            streams, tracker, t_fill, consumed, order, rounds, t0,
        )


class AdaptiveDispatch:
    """Multi-round adaptive access with work stealing (§6.2.1).

    Reads start by requesting each unit from its primary disk (the
    placement policy's :meth:`adaptive_units` view).  Whenever a disk
    drains its queue, the client (one one-way latency later) finds the
    disk with the most unserved units that the idle disk also holds, and
    re-requests the second half of that victim's remaining work.  Every
    hand-off costs a round trip — the engine's sensitivity to network
    latency (Fig 6-12) — but almost no unit is ever fetched twice, so I/O
    overhead stays near zero (Fig 6-8).

    Single-holder layouts (LT, grouped RS) have nothing to steal: every
    disk's primaries are its own stored blocks, so the engine degenerates
    to one uncancelled round — the honest cost of pairing a coded layout
    with physical-granularity hand-offs.
    """

    #: The event engine runs an ``AdaptiveClient`` for compositions
    #: whose dispatch carries this flag.
    adaptive = True

    def read(self, scheme, spec, record, plan, trial) -> AccessResult:
        return AdaptiveRead(scheme, spec, record, plan, trial).read()
