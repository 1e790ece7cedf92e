"""Completion policies: when an access can finish, and at what decode cost.

Each policy builds a fresh per-access tracker (the mutable state lives in
:mod:`repro.accesscore.trackers`, not here), converts the tracker's fill
time into the access completion and cancel times, and contributes its
result extras and trace events.  The same ``tracker`` hook feeds both
engines — the closed form consumes it against a sorted arrival vector,
the event-driven reference engine one inbox message at a time.

The fill/cancel asymmetries the policies encode:

* coverage / parity — done at fill, cancel at fill;
* LT decode — done one block-decode after fill (incremental peeling hides
  the rest behind I/O), cancel once decoding is done;
* code stripes (grouped RS, regenerating) — cancel at fill (the client
  decodes locally while disks stand down), done after the pipelined
  per-stripe decode.
"""

from __future__ import annotations

import numpy as np

from repro.accesscore.routing import decode_tail_s
from repro.accesscore.trackers import (
    CoverageTracker,
    DecoderTracker,
    ParityStripeTracker,
    StripeTracker,
)
from repro.coding.peeling import PeelingDecoder
from repro.core.policy.base import ReadPlan
from repro.core.policy.placement import rs_decode_bandwidth_bps


class _CompletionBase:
    """Default: finish at fill, no extras, no trace events."""

    wants_order = True

    def finish(self, scheme, tracker, t_fill):
        return t_fill, t_fill

    def extras(self, scheme, tracker, t_fill, t_done):
        return {}

    def trace(self, tracer, tracker, t_fill, t_done, consumed):
        pass


class CoverageCompletion(_CompletionBase):
    """Replicated layouts: one copy of every original block (id % K).

    RAID-0 is the one-copy case: every block must arrive.
    """

    def tracker(self, scheme, record, plan: ReadPlan):
        return CoverageTracker(scheme.config.k)


class LTDecodeCompletion(_CompletionBase):
    """RobuSTore: the incremental LT peeling decoder gates completion."""

    def tracker(self, scheme, record, plan: ReadPlan):
        return DecoderTracker(PeelingDecoder(record.extra["graph"]))

    def finish(self, scheme, tracker, t_fill):
        t_done = t_fill + decode_tail_s(scheme.config.block_bytes)
        return t_done, t_done

    def extras(self, scheme, tracker, t_fill, t_done):
        return {"reception_overhead": tracker.decoder.reception_overhead}

    def trace(self, tracer, tracker, t_fill, t_done, consumed):
        if tracer.enabled and np.isfinite(t_fill):
            # The decode ripple: last arrival -> decoder-complete tail.
            tracer.span(
                "scheme.decode_tail",
                "scheme",
                t_fill,
                t_done,
                track="scheme",
                args={"reception_overhead": tracker.decoder.reception_overhead},
            )
            tracer.instant(
                "scheme.decode_complete",
                "scheme",
                t_fill,
                track="scheme",
                args={"blocks_consumed": consumed},
            )


class StripeCompletion(_CompletionBase):
    """Code stripes: every stripe fills, then stripes decode pipelined.

    A stripe decodes once it fills, one stripe at a time, and the cancel
    goes out at fill while the client decodes locally.  The decode rate
    uses the GF(256) bandwidth table at word length ``d``: a grouped RS
    word (alpha = 1, d = k) pays the quadratic-cost RS rate over its
    ``k`` blocks, while the product-matrix decoder's systems are ``d x d``,
    far smaller than an RS word, which is the decode-side half of the
    regenerating bargain.  With fast parallel disks every stripe fills
    almost together and the whole decode serialises after the fill; over
    a slow WAN the fills stagger and decoding hides behind the transfers
    (Collins & Plank's regime, §2.3).

    ``extra`` names the result extra that reports the stripe geometry and
    ``field`` the tracker attribute it reports (``group`` = k for RS,
    ``regen_nodes`` = nodes for the regenerating stripes).
    """

    def __init__(self, extra: str, field: str) -> None:
        self.extra = extra
        self.field = field

    def tracker(self, scheme, record, plan: ReadPlan):
        c = record.coding
        return StripeTracker(c["stripes"], c["nodes"], c["k"], c["alpha"], c["d"])

    def finish(self, scheme, tracker, t_fill):
        cfg = scheme.config
        stripe_bytes = tracker.k * tracker.alpha * cfg.block_bytes
        stripe_decode_s = stripe_bytes / rs_decode_bandwidth_bps(tracker.d)
        decoder_free = 0.0
        for ft in sorted(tracker.fill_times):
            decoder_free = max(decoder_free, ft) + stripe_decode_s
        t_done = (
            decoder_free if tracker.fill_times and tracker.complete else float("inf")
        )
        return t_done, t_fill

    def extras(self, scheme, tracker, t_fill, t_done):
        decode_tail = (
            max(0.0, t_done - t_fill) if np.isfinite(t_done) else float("inf")
        )
        return {"decode_tail_s": decode_tail, self.extra: getattr(tracker, self.field)}


class ParityCompletion(_CompletionBase):
    """RAID-5: direct arrival or stripe reconstruction; no arrival replay."""

    wants_order = False

    def tracker(self, scheme, record, plan: ReadPlan):
        return ParityStripeTracker(
            scheme.config.k,
            record.extra["stripes"],
            plan.tracker_args.get("failed_pos"),
        )
