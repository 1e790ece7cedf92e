"""Repair: rebuild a file's redundancy after disk failures (§5.3.1).

"If data are spread across multiple sites with erasure-coded redundancy,
they can be easily reconstructed from data blocks on the available
disks."  This module performs that reconstruction, with one repair pass
per coding family — each moving a very different number of bytes per
failure, which is the economy ``ext_repair`` measures:

* **LT** (RobuSTore) — read enough surviving coded blocks to decode
  (a normal speculative read), extend the graph with *fresh* rateless
  blocks, write them to healthy disks.
* **Reed-Solomon** (grouped) — whole-word reconstruction: every affected
  group reads ``group`` surviving blocks from helpers, re-encodes the
  exact lost blocks, writes them back.
* **Regenerating** (product-matrix MSR/MBR) — each lost node pulls one
  ``beta``-symbol from ``d`` helpers: ``d`` block transfers instead of a
  whole stripe, the Dimakis repair-bandwidth saving.  Falls back to
  whole-stripe decode when fewer than ``d`` helpers survive.

All passes consume drive capacity through the ordinary disk service
model (:func:`serve_read_queues` / :func:`simulate_uniform_write`), so
rebuild traffic competes with foreground accesses on the same RNG-derived
service times.  :func:`maybe_repair` is the notification entry point: it
dedupes triggers per disk epoch, defers to a
:class:`repro.rebuild.RebuildScheduler` when one is supplied, and meters
every executed pass into a :class:`repro.rebuild.RepairLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accesscore.repair import DEFAULT_REPAIR_FLOOR, repair_trigger_state
from repro.accesscore.timeline import (
    finalize_read,
    serve_read_queues,
    simulate_uniform_write,
)
from repro.coding.lt import ImprovedLTCode
from repro.core.pipeline import PolicyScheme
from repro.rebuild import RepairEvent, RepairTask


@dataclass(frozen=True)
class RepairDecision:
    """Structured outcome of one fault notification (:func:`maybe_repair`).

    ``triggered`` says whether the file currently warrants repair;
    ``reason`` is one of ``no-faults`` / ``healthy`` / ``duplicate``
    (this disk epoch was already handled) / ``deferred`` (queued by the
    scheduler) / ``repaired``.  ``reports`` carries one
    :class:`~repro.rebuild.RepairEvent` per pass the scheduler released.
    """

    triggered: bool
    reason: str
    dead_disks: tuple[int, ...]
    surviving_redundancy: float
    reports: tuple[RepairEvent, ...] = ()
    #: Tasks still queued in the scheduler after this notification.
    deferred: int = 0

    @property
    def repaired(self) -> bool:
        return bool(self.reports)


def failed_positions(scheme: PolicyScheme, file_name: str) -> list[int]:
    """Placement positions whose disks are currently failed.

    Covers both per-trial erasure state (``DiskState.failed``) and disks a
    fault plan permanently fail-stopped mid-run
    (:meth:`repro.faults.inject.FaultInjector.permanently_failed`).
    """
    record = scheme.metadata.lookup(file_name)
    injector = scheme.cluster.faults

    def is_dead(d: int) -> bool:
        if scheme.cluster.disk_state(d).failed:
            return True
        return injector is not None and injector.permanently_failed(d)

    return [
        idx for idx, d in enumerate(record.disk_ids) if is_dead(int(d))
    ]


def _positions_of(record) -> dict[int, int]:
    """Map every stored block id to its placement position."""
    pos: dict[int, int] = {}
    for idx, blocks in enumerate(record.placement):
        for b in blocks:
            pos[int(b)] = idx
    return pos


def _helper_read(scheme, record, trial: int, queues, file_name: str):
    """Serve the helper queues through the disk service model.

    Returns ``(t_fill, network_bytes)`` — the instant the last helper
    block reaches the client, and the bytes that crossed the network.
    """
    cfg = scheme.config
    streams = serve_read_queues(
        scheme.cluster,
        record.disk_ids,
        queues,
        cfg.block_bytes,
        0.0,
        scheme.service_rng_factory(trial, "rebuild-read"),
        file_name,
    )
    arrivals = [s.arrivals for s in streams if s.arrivals.size]
    stacked = np.concatenate(arrivals) if arrivals else np.empty(0)
    if stacked.size and not np.isfinite(stacked).all():
        raise RuntimeError(f"{file_name!r}: helper disks failed mid-repair")
    t_fill = float(stacked.max()) if stacked.size else 0.0
    network_bytes, _, _ = finalize_read(
        streams, scheme.cluster, t_fill, cfg.block_bytes, file_name
    )
    return t_fill, network_bytes


def _write_replacements(scheme, record, trial: int, writes, file_name: str):
    """Commit the replacement queues; return ``(t_write, bytes_written)``."""
    t_write, net = simulate_uniform_write(
        scheme.cluster,
        record.disk_ids,
        writes,
        scheme.config.block_bytes,
        0.0,
        scheme.service_rng_factory(trial, "rebuild-write"),
        file_name,
    )
    if not np.isfinite(t_write):
        raise RuntimeError(f"{file_name!r}: replacement write never committed")
    return t_write, net


def _merge_placement(scheme, record, file_name: str, dead: set[int], writes):
    """Drop the dead positions' blocks, graft in the replacements."""
    merged = []
    for idx in range(len(record.disk_ids)):
        keep = [] if idx in dead else list(record.placement[idx])
        merged.append(keep + list(writes[idx]))
    scheme.metadata.update_placement(file_name, merged)


def _touched(record, *queue_sets) -> int:
    """Distinct disks with any helper read or replacement write."""
    disks = set()
    for queues in queue_sets:
        for idx, q in enumerate(queues):
            if q:
                disks.add(int(record.disk_ids[idx]))
    return len(disks)


def _repair_lt(scheme, file_name: str, trial: int, record, dead, healthy, lost):
    """RobuSTore: decode via a speculative read, extend the graph, rewrite."""
    cfg = scheme.config
    graph = record.extra["graph"]

    # 1. Reconstruct: a speculative read over what survives (the scheme's
    #    normal read path already skips dead disks — they never respond).
    read_result = scheme.read(file_name, trial)
    if not np.isfinite(read_result.latency_s):
        raise RuntimeError(
            f"{file_name!r}: surviving blocks cannot reconstruct the data"
        )

    if lost == 0:
        return RepairEvent(
            file_name=file_name,
            algorithm="lt",
            bytes_read_helpers=read_result.network_bytes,
            bytes_written=0,
            disks_touched=len(healthy),
            blocks_lost=0,
            blocks_rebuilt=0,
            block_bytes=cfg.block_bytes,
            read_s=read_result.latency_s,
            write_s=0.0,
        )

    # 2. Fresh rateless replacements: extend the graph rather than rebuild
    #    the exact lost blocks (any coded blocks restore the redundancy).
    #    Copy-on-repair: pooled graphs are shared across files, so this
    #    file gets its own graph before it grows.
    from repro.coding.lt import LTGraph

    graph = LTGraph(graph.k, list(graph.neighbors))
    record.extra["graph"] = graph
    code = ImprovedLTCode(cfg.k, c=cfg.lt_c, delta=cfg.lt_delta)
    rng = scheme.hub.fresh("repair-extend", file_name, trial)
    first_new = graph.n
    code.extend_graph(graph, lost, rng)
    new_ids = list(range(first_new, first_new + lost))

    # 3. Spread the replacements over the healthy disks.
    new_placement = [[] for _ in record.disk_ids]
    for j, bid in enumerate(new_ids):
        new_placement[healthy[j % len(healthy)]].append(bid)
    rng_for = scheme.service_rng_factory(trial, "repair-write")
    t_write, write_bytes = simulate_uniform_write(
        scheme.cluster,
        record.disk_ids,
        new_placement,
        cfg.block_bytes,
        0.0,
        rng_for,
        file_name,
    )

    # 4. Metadata: drop the dead positions' blocks, add the replacements.
    _merge_placement(scheme, record, file_name, set(dead), new_placement)

    return RepairEvent(
        file_name=file_name,
        algorithm="lt",
        bytes_read_helpers=read_result.network_bytes,
        bytes_written=write_bytes,
        disks_touched=len(healthy),
        blocks_lost=lost,
        blocks_rebuilt=lost,
        block_bytes=cfg.block_bytes,
        read_s=read_result.latency_s,
        write_s=t_write,
    )


def _repair_reed_solomon(
    scheme, file_name: str, trial: int, record, dead, healthy, lost
):
    """Grouped RS: whole-word reconstruction per affected group."""
    dead_set = set(dead)
    group = record.coding["group"]
    pos_of = _positions_of(record)
    lost_ids = sorted(b for i in dead for b in record.placement[i])
    affected = sorted({bid >> 20 for bid in lost_ids})

    helper_q = [[] for _ in record.disk_ids]
    for g in affected:
        survivors = sorted(
            bid
            for bid, p in pos_of.items()
            if (bid >> 20) == g and p not in dead_set
        )[:group]
        if len(survivors) < group:
            raise RuntimeError(
                f"{file_name!r}: group {g} kept only {len(survivors)}/{group} blocks"
            )
        for bid in survivors:
            helper_q[pos_of[bid]].append(bid)
    t_read, bytes_read = _helper_read(scheme, record, trial, helper_q, file_name)

    # Re-encode the exact lost blocks; spread them over the healthy disks.
    writes = [[] for _ in record.disk_ids]
    for j, bid in enumerate(lost_ids):
        writes[healthy[j % len(healthy)]].append(bid)
    t_write, bytes_written = _write_replacements(
        scheme, record, trial, writes, file_name
    )
    _merge_placement(scheme, record, file_name, dead_set, writes)

    return RepairEvent(
        file_name=file_name,
        algorithm="reed-solomon",
        bytes_read_helpers=bytes_read,
        bytes_written=bytes_written,
        disks_touched=_touched(record, helper_q, writes),
        blocks_lost=lost,
        blocks_rebuilt=lost,
        block_bytes=scheme.config.block_bytes,
        read_s=t_read,
        write_s=t_write,
    )


def _repair_regenerating(
    scheme, file_name: str, trial: int, record, dead, healthy, lost
):
    """Product-matrix repair: ``d`` beta-symbols per lost node."""
    dead_set = set(dead)
    c = record.coding
    n, k, d, alpha = c["nodes"], c["k"], c["d"], c["alpha"]
    pos_of = _positions_of(record)

    def node_pos(s: int, j: int) -> int:
        return pos_of[(s << 20) | (j * alpha)]

    helper_q = [[] for _ in record.disk_ids]
    writes = [[] for _ in record.disk_ids]
    w = 0
    for s in range(c["stripes"]):
        alive = [j for j in range(n) if node_pos(s, j) not in dead_set]
        lost_nodes = [j for j in range(n) if node_pos(s, j) in dead_set]
        if not lost_nodes:
            continue
        if len(alive) < k:
            raise RuntimeError(
                f"{file_name!r}: stripe {s} kept only {len(alive)}/{k} nodes"
            )
        if len(alive) >= d:
            # Exact regeneration: each lost node pulls one beta-symbol
            # (one block) from d helpers.
            for f in lost_nodes:
                for h in alive[:d]:
                    helper_q[node_pos(s, h)].append(
                        (s << 20) | (h * alpha + (f % alpha))
                    )
        else:
            # Degraded fallback: decode the stripe from k whole nodes,
            # re-encode every lost node from the message.
            for h in alive[:k]:
                for a in range(alpha):
                    helper_q[node_pos(s, h)].append((s << 20) | (h * alpha + a))
        for f in lost_nodes:
            target = healthy[w % len(healthy)]
            w += 1
            writes[target].extend((s << 20) | (f * alpha + a) for a in range(alpha))
    t_read, bytes_read = _helper_read(scheme, record, trial, helper_q, file_name)
    t_write, bytes_written = _write_replacements(
        scheme, record, trial, writes, file_name
    )
    _merge_placement(scheme, record, file_name, dead_set, writes)

    return RepairEvent(
        file_name=file_name,
        algorithm=c["algorithm"],
        bytes_read_helpers=bytes_read,
        bytes_written=bytes_written,
        disks_touched=_touched(record, helper_q, writes),
        blocks_lost=lost,
        blocks_rebuilt=lost,
        block_bytes=scheme.config.block_bytes,
        read_s=t_read,
        write_s=t_write,
    )


def repair_file(scheme: PolicyScheme, file_name: str, trial: int) -> RepairEvent:
    """Rebuild the redundancy a failure destroyed; return the pass's record.

    Dispatches on the record's coding family (LT graph extension, RS
    whole-word reconstruction, regenerating node repair).

    Raises
    ------
    RuntimeError
        If the surviving blocks cannot reconstruct the data (the failure
        exceeded the redundancy).
    """
    record = scheme.metadata.lookup(file_name)
    dead = failed_positions(scheme, file_name)
    lost = sum(len(record.placement[i]) for i in dead)
    healthy = [i for i in range(len(record.disk_ids)) if i not in set(dead)]
    if not healthy:
        raise RuntimeError("no surviving disks to repair from")

    # The pass's own helper reads (LT re-reads the whole object through
    # scheme.read) are rebuild traffic, not client traffic: unhook any
    # installed ledger so they don't count as degraded foreground reads.
    ledger = getattr(scheme.cluster, "repair_ledger", None)
    if ledger is not None:
        scheme.cluster.repair_ledger = None
    try:
        algorithm = record.coding.get("algorithm", "lt")
        if algorithm.startswith("regenerating"):
            return _repair_regenerating(
                scheme, file_name, trial, record, dead, healthy, lost
            )
        if algorithm == "reed-solomon":
            return _repair_reed_solomon(
                scheme, file_name, trial, record, dead, healthy, lost
            )
        return _repair_lt(scheme, file_name, trial, record, dead, healthy, lost)
    finally:
        if ledger is not None:
            scheme.cluster.repair_ledger = ledger


def maybe_repair(
    scheme, file_name: str, trial: int, result, scheduler=None, ledger=None
) -> RepairDecision:
    """Act on one fault notification; idempotent per disk epoch.

    The trigger comes from the read's extras when the reaction policy
    annotated them (``repair_triggered``), and is recomputed from the
    shared trigger rule otherwise — so schemes with a passive reaction
    (grouped RS) repair under the same floor as RobuSTore.  Repeated
    notifications for the same set of dead disks return a ``duplicate``
    decision without repairing again; a new failure starts a new epoch.
    A pass that raises leaves its epoch unclaimed, so the next
    notification for the same dead set tries again.

    Without a ``scheduler`` every trigger repairs immediately (eager);
    with one, the scheduler decides which queued tasks to release now.
    Executed passes are metered into ``ledger`` (falling back to the
    cluster-installed ``repair_ledger``, if any).
    """
    record = scheme.metadata.lookup(file_name)
    surv = result.extra.get("surviving_redundancy")
    triggered = result.extra.get("repair_triggered")
    if ledger is None:
        ledger = getattr(scheme.cluster, "repair_ledger", None)
    if triggered is None:
        floor = getattr(scheme, "REPAIR_REDUNDANCY_FLOOR", DEFAULT_REPAIR_FLOOR)
        state = repair_trigger_state(scheme, record, floor)
        if state is None:
            return RepairDecision(False, "no-faults", (), float("nan"))
        surv, triggered = state
        # A passive reaction never annotated this read, so the ledger
        # has not seen it yet — meter the degraded read here.
        if triggered and ledger is not None:
            lat = float(result.latency_s)
            ledger.note_degraded_read(
                lat if np.isfinite(lat) else float("inf"), float(surv)
            )
    surv = float(surv) if surv is not None else float("nan")
    if not triggered:
        return RepairDecision(False, "healthy", (), surv)

    dead = tuple(
        sorted(int(record.disk_ids[i]) for i in failed_positions(scheme, file_name))
    )
    pending = len(scheduler.pending) if scheduler is not None else 0
    previous = record.extra.get("repair_epoch")
    if previous == dead:
        return RepairDecision(True, "duplicate", dead, surv, deferred=pending)
    record.extra["repair_epoch"] = dead

    task = RepairTask(file_name, trial, dead, surv)
    released = [task] if scheduler is None else scheduler.offer(task)
    reports = []
    try:
        for t in released:
            reports.append(repair_file(scheme, t.file_name, t.trial))
            if ledger is not None:
                ledger.record(reports[-1])
    except RuntimeError:
        # A failed pass must not claim the epoch, or every later
        # notification for this dead set would be a silent "duplicate".
        if previous is None:
            del record.extra["repair_epoch"]
        else:
            record.extra["repair_epoch"] = previous
        raise
    pending = len(scheduler.pending) if scheduler is not None else 0
    reason = "repaired" if reports else "deferred"
    return RepairDecision(
        True, reason, dead, surv, tuple(reports), deferred=pending
    )


def drain_repairs(scheme, scheduler, ledger=None) -> tuple[RepairEvent, ...]:
    """Flush a scheduler's queue and repair everything it was holding.

    The end-of-horizon drain: lazy and batched policies may still be
    sitting on deferred :class:`~repro.rebuild.RepairTask` entries when a
    run ends.  Every flushed task gets its repair pass, metered into
    ``ledger`` (falling back to the cluster-installed ``repair_ledger``).
    """
    if ledger is None:
        ledger = getattr(scheme.cluster, "repair_ledger", None)
    reports = []
    for task in scheduler.flush():
        reports.append(repair_file(scheme, task.file_name, task.trial))
        if ledger is not None:
            ledger.record(reports[-1])
    return tuple(reports)
