"""Fault reactions: what mid-operation faults do to an access.

The reaction layer owns three decision points of a read:

* :meth:`~PassiveReaction.plan_read` — turn the file record into a
  :class:`~repro.core.policy.base.ReadPlan` (or a finished result when the
  fate is already sealed, like RAID-5's double failure);
* :meth:`~PassiveReaction.on_stall` — build second-round streams after a
  stalled first round (RobuSTore's re-speculation), or ``None``; the
  event engine asks :meth:`~PassiveReaction.retry_targets` instead;
* :meth:`~PassiveReaction.annotate` — post-access bookkeeping, called by
  both engines' epilogues: every layout meters a degraded read into the
  installed repair ledger, and RobuSTore's reads also carry the
  repair-trigger flags.

It also owns the repair-trigger rule, :func:`repair_trigger`, which reads
and :func:`repro.core.repair.maybe_repair` share.
"""

from __future__ import annotations

import numpy as np

from repro.accesscore.result import AccessResult
from repro.accesscore.timeline import serve_read_queues
from repro.accesscore.trackers import PARITY_BASE
from repro.core.policy.base import ReadPlan
from repro.faults.inject import surviving_blocks

#: The repair floor when no ledger is installed: a file warrants repair
#: once its surviving redundancy falls below this fraction of the
#: redundancy it provisioned.  An installed ledger's ``floor`` replaces it.
DEFAULT_REPAIR_FLOOR = 0.5


def repair_trigger(scheme, record):
    """The repair-trigger rule: ``(surviving_redundancy, triggered)``.

    ``None`` without a fault injector — fault-free runs never pay for the
    survival scan.  The floor is the installed ledger's
    (``cluster.repair_ledger.floor``), else :data:`DEFAULT_REPAIR_FLOOR`.

    The trigger target is the redundancy the file actually carries on
    disk (``blocks_placed / k - 1``), not the configured degree: coding
    geometries quantize expansion (a regenerating stripe rounds its node
    count; a trimmed speculative write lands short), and repair urgency
    is about losing what *was* provisioned.
    """
    injector = scheme.cluster.faults
    if injector is None:
        return None
    ledger = scheme.cluster.repair_ledger
    floor = DEFAULT_REPAIR_FLOOR if ledger is None else ledger.floor
    k = scheme.config.k
    provisioned = sum(len(p) for p in record.placement) / k - 1.0
    surv_red = surviving_blocks(injector, record) / k - 1.0
    return surv_red, bool(surv_red < floor * provisioned)


class PassiveReaction:
    """Request everything once and live with what arrives.

    RAID-0's abort on a lost block and the replicated layouts' failover
    need no code: the tracker never completes, or a mirror's copy arrives
    (see the ``COMPOSITIONS`` comments).
    """

    def plan_read(self, scheme, record):
        return ReadPlan(record.disk_ids, record.placement)

    def on_stall(self, scheme, streams, trial, file_name, t_fill):
        return None

    def retry_targets(self, scheme, pending, t_retry_floor, t0):
        return None

    def annotate(self, scheme, record, extra, t_done, t0):
        """Meter the read into the installed repair ledger if it ran degraded."""
        if scheme.cluster.repair_ledger is not None:
            self._meter(scheme, repair_trigger(scheme, record), t_done)

    @staticmethod
    def _meter(scheme, state, t_done):
        """The one degraded-read metering site, for every layout.

        ``state`` is the read's :func:`repair_trigger` result; a read that
        settled below the floor is a degraded read.  Returns ``state``.
        """
        ledger = scheme.cluster.repair_ledger
        if state is not None and state[1] and ledger is not None:
            ledger.note_degraded_read(t_done)
        return state


class Respeculate(PassiveReaction):
    """RobuSTore: re-request undelivered blocks, flag files for repair."""

    def retry_targets(self, scheme, pending, t_retry_floor, t0):
        """Resolve where and when a second round can go.

        ``pending`` maps disk id -> undelivered block ids (disks that are
        permanently gone already excluded); ``t_retry_floor`` is the
        earliest instant the client can have observed the stall (its last
        finite arrival).  Pushes the retry past each pending disk's
        post-fail recovery, drops disks still down at that instant, and
        emits the re-speculation trace event.  Returns ``(disks, t_retry)``
        or ``None`` when no disk can serve a second round — shared by both
        engines so the retry rule exists once.
        """
        if not pending:
            return None
        injector = scheme.cluster.faults
        # The client observes the stall no earlier than (a) its last finite
        # arrival and (b) the fail-stop that flushed each pending queue; it
        # re-requests once every pending disk has restarted.
        t_retry = t_retry_floor
        for d in pending:
            tl = injector.timeline(d)
            flush = tl.next_fail_after(t0)
            if np.isfinite(flush):
                t_retry = max(t_retry, tl.resume_time(flush))
        disks = [d for d in sorted(pending) if not injector.down_at(d, t_retry)]
        if not disks:
            return None
        if scheme.tracer.enabled:
            scheme.tracer.instant(
                "scheme.respeculate",
                "scheme",
                t_retry,
                track="scheme",
                args={
                    "disks": len(disks),
                    "blocks": sum(len(pending[d]) for d in disks),
                },
            )
        return disks, t_retry

    def on_stall(self, scheme, streams, trial, file_name, t_fill):
        """Build the second-round streams after a fault-stalled decode.

        The client notices the stall once every finite round-1 arrival has
        drained without completing the decode.  Blocks whose arrivals never
        materialised are re-requested from their disks — skipping disks that
        are permanently gone, and waiting for the next recovery when every
        stalled disk is still down at the stall instant.  Returns ``None``
        when no disk can serve a second round (the read genuinely fails).
        """
        cfg = scheme.config
        injector = scheme.cluster.faults
        t0 = scheme.open_latency()
        pending: dict[int, list[int]] = {}
        for s in streams:
            pend = s.block_ids[~np.isfinite(s.arrivals)]
            if pend.size and not injector.permanently_failed(s.disk_id):
                pending[s.disk_id] = [int(b) for b in pend]
        finite = [s.arrivals[np.isfinite(s.arrivals)] for s in streams]
        finite = np.concatenate(finite) if finite else np.empty(0)
        t_retry_floor = float(finite.max()) if finite.size else t0
        resolved = self.retry_targets(scheme, pending, t_retry_floor, t0)
        if resolved is None:
            return None
        disks, t_retry = resolved
        return serve_read_queues(
            scheme.cluster,
            disks,
            [pending[d] for d in disks],
            cfg.block_bytes,
            t_retry,
            scheme.service_rng_factory(trial, "read-retry", disks),
            file_name,
        )

    def annotate(self, scheme, record, extra, t_done, t0):
        """Meter as every layout does; also flag the read and trace a trigger.

        The extras carry ``surviving_redundancy`` and ``repair_triggered``
        (:func:`repro.core.repair.maybe_repair` applies the same rule).
        """
        state = self._meter(scheme, repair_trigger(scheme, record), t_done)
        if state is None:
            return
        surv_red, triggered = state
        extra["surviving_redundancy"] = surv_red
        extra["repair_triggered"] = triggered
        tracer = scheme.tracer
        if triggered and tracer.enabled:
            tracer.count("scheme.repairs_triggered")
            tracer.instant(
                "scheme.repair_trigger",
                "scheme",
                t_done if np.isfinite(t_done) else t0,
                track="scheme",
                args={"surviving_redundancy": surv_red},
            )


class DegradedParityRead(PassiveReaction):
    """RAID-5: plan around one failed disk; two failures are fatal.

    Fault-free reads touch only the data blocks (parity is dead weight);
    with one failed disk every stripe that lost a data block also fetches
    its parity and reconstructs; more than one failed disk returns an
    unrecoverable result without touching the disks.
    """

    def plan_read(self, scheme, record):
        cfg = scheme.config
        stripes = record.extra["stripes"]
        failed_positions = {
            idx
            for idx, d in enumerate(record.disk_ids)
            if scheme.cluster.disk_state(int(d)).failed
        }
        if len(failed_positions) > 1:
            return AccessResult(
                latency_s=float("inf"),
                data_bytes=cfg.data_bytes,
                network_bytes=0,
                disk_blocks=0,
                blocks_received=0,
                extra={"degraded": True, "unrecoverable": True},
            )

        # Request plan: all data blocks from surviving disks; for stripes
        # that lost a data block, also the parity (if its disk survived).
        degraded = bool(failed_positions)
        failed_pos = next(iter(failed_positions), None)
        placement = [[] for _ in record.disk_ids]
        for idx, blocks in enumerate(record.placement):
            if idx == failed_pos:
                continue
            placement[idx] = [
                b
                for b in blocks
                if b < PARITY_BASE
                or degraded
                and self._stripe_lost_data(stripes[b - PARITY_BASE], failed_pos)
            ]
        # One failure never costs a stripe both a data block and its parity:
        # ParityStripePlacement.layout deals data around the parity disk.
        return ReadPlan(
            record.disk_ids,
            placement,
            extra={"degraded": degraded},
            tracker_args={"failed_pos": failed_pos},
        )

    @staticmethod
    def _stripe_lost_data(stripe: dict, failed_pos) -> bool:
        return any(d == failed_pos for _, d in stripe["data"])
