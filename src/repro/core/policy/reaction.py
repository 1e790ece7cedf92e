"""Fault reactions: what mid-operation faults do to an access.

The reaction layer owns three decision points of a read:

* :meth:`~PassiveReaction.plan_read` — turn the file record into a
  :class:`~repro.core.policy.base.ReadPlan` (or a finished result when the
  fate is already sealed, like RAID-5's double failure);
* :meth:`~PassiveReaction.on_stall` — build second-round streams after a
  stalled first round (RobuSTore's re-speculation), or ``None``; the
  event engine asks :meth:`~PassiveReaction.retry_targets` instead;
* :meth:`~PassiveReaction.annotate` — post-access bookkeeping on the
  result extras (RobuSTore's repair-trigger flags, through the
  access-core's single repair wiring site).
"""

from __future__ import annotations

import numpy as np

from repro.accesscore.repair import annotate_repair
from repro.accesscore.result import AccessResult
from repro.accesscore.timeline import serve_read_queues
from repro.accesscore.trackers import PARITY_BASE
from repro.core.policy.base import ReadPlan


class PassiveReaction:
    """Request everything once and live with what arrives."""

    def plan_read(self, scheme, record):
        return ReadPlan(record.disk_ids, record.placement)

    def on_stall(self, scheme, streams, trial, file_name, t_fill):
        return None

    def retry_targets(self, scheme, pending, t_retry_floor, t0):
        return None

    def annotate(self, scheme, record, extra, t_done, t0):
        return None


class AbortOnLoss(PassiveReaction):
    """RAID-0: any lost block leaves the access incomplete (latency inf).

    With zero redundancy there is nothing to re-request — the abort is the
    completion tracker simply never finishing.
    """


class EmergentFailover(PassiveReaction):
    """Replicated layouts: failover falls out of speculation.

    Every replica is already requested, so a failed disk's blocks arrive
    from their mirrors without any explicit reaction; the access only
    fails when *all* copies of some block sit on failed disks.
    """


class Respeculate(PassiveReaction):
    """RobuSTore: re-request undelivered blocks, flag files for repair."""

    #: When permanent fail-stops push a file's surviving redundancy below
    #: this fraction of the configured degree, reads flag the file for a
    #: background rebuild (``extra["repair_triggered"]``;
    #: :func:`repro.core.repair.maybe_repair` acts on it).
    REPAIR_REDUNDANCY_FLOOR = 0.5

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
            scheme.service_rng_factory(trial, "read-retry"),
            file_name,
        )

    def annotate(self, scheme, record, extra, t_done, t0):
        floor = getattr(
            scheme, "REPAIR_REDUNDANCY_FLOOR", self.REPAIR_REDUNDANCY_FLOOR
        )
        return annotate_repair(scheme, record, extra, t_done, t0, floor)


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
        recoverable = True
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
        if degraded:
            for stripe in stripes:
                if self._stripe_lost_data(stripe, failed_pos) and stripe[
                    "parity_disk"
                ] == failed_pos:
                    recoverable = False  # lost both a data block and parity? impossible
        if not recoverable:  # pragma: no cover - single failure never hits this
            return AccessResult(float("inf"), cfg.data_bytes, 0, 0, 0)
        return ReadPlan(
            record.disk_ids,
            placement,
            extra={"degraded": degraded},
            tracker_args={"failed_pos": failed_pos},
        )

    @staticmethod
    def _stripe_lost_data(stripe: dict, failed_pos) -> bool:
        return any(d == failed_pos for _, d in stripe["data"])
