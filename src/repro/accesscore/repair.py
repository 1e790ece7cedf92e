"""Repair triggering — the access-core's single wiring site.

A read that observes degraded redundancy flags the file for background
rebuild (§5.2.2): when permanent fail-stops push the file's surviving
redundancy below a floor fraction of the configured degree, the result's
extras carry ``repair_triggered`` and the tracer counts the event.
Both engines settle reads through :func:`annotate_repair` (via the
reaction policy's ``annotate`` hook), so the trigger rule and its trace
events exist exactly once — and a :class:`repro.rebuild.RepairLedger`
installed on the cluster (``cluster.repair_ledger``) sees every degraded
read here, covering both engines from the same site.
"""

from __future__ import annotations

import numpy as np

from repro.faults.inject import surviving_blocks

#: Trigger fraction used when a scheme declares no floor of its own
#: (:class:`repro.core.policy.reaction.Respeculate`'s default too).
DEFAULT_REPAIR_FLOOR = 0.5


def repair_trigger_state(scheme, record, floor: float):
    """The repair-trigger rule, computed once for every consumer.

    Returns ``(surviving_redundancy, triggered)``, or ``None`` without a
    fault injector — fault-free runs never pay for the survival scan.
    Shared by :func:`annotate_repair` (reads annotating their extras) and
    :func:`repro.core.repair.maybe_repair` (fault notifications for
    schemes whose reaction policy does not annotate).

    The trigger target is the redundancy the file actually carries on
    disk (``blocks_placed / k - 1``), not the configured degree: coding
    geometries quantize expansion (a regenerating stripe rounds its node
    count; a trimmed speculative write lands short), and repair urgency
    is about losing what *was* provisioned.
    """
    injector = scheme.cluster.faults
    if injector is None:
        return None
    surviving = surviving_blocks(injector, record)
    k = scheme.config.k
    provisioned = sum(len(p) for p in record.placement) / k - 1.0
    surv_red = surviving / k - 1.0
    return surv_red, bool(surv_red < floor * provisioned)


def annotate_repair(scheme, record, extra, t_done, t0, floor: float):
    """Annotate ``extra`` with surviving redundancy and the repair flag.

    ``floor`` is the triggering fraction (the reaction policy resolves the
    per-scheme override before calling).  No-op without a fault injector.
    """
    state = repair_trigger_state(scheme, record, floor)
    if state is None:
        return None
    surv_red, triggered = state
    extra["surviving_redundancy"] = surv_red
    extra["repair_triggered"] = triggered
    if triggered:
        ledger = scheme.cluster.repair_ledger
        if ledger is not None:
            ledger.note_degraded_read(
                float(t_done) if np.isfinite(t_done) else float("inf"), surv_red
            )
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
    return None
