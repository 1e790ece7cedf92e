"""Repair: rebuild a file's redundancy after disk failures (§5.3.1).

"If data are spread across multiple sites with erasure-coded redundancy,
they can be easily reconstructed from data blocks on the available
disks."  This module performs that reconstruction, with one repair pass
per coding family — each moving a very different number of bytes per
failure, which is the economy ``ext_repair`` measures:

* **LT** (RobuSTore) — read enough surviving coded blocks to decode
  (a normal speculative read), extend the graph with *fresh* rateless
  blocks, write them to healthy disks.
* **Code stripes** (product-matrix MSR/MBR, and grouped Reed-Solomon
  words as stripes at ``alpha = 1``) — with ``alpha > 1`` each lost node
  pulls one ``beta``-symbol from ``d`` helpers: ``d`` block transfers
  instead of a whole stripe, the Dimakis repair-bandwidth saving.  An RS
  word, or a regenerating stripe with fewer than ``d`` surviving helpers,
  is rebuilt whole: ``k`` surviving nodes are read, the exact lost nodes
  re-encoded and written back.

All passes consume drive capacity through the ordinary disk service
model (:func:`serve_read_queues` / :func:`simulate_uniform_write`), so
rebuild traffic competes with foreground accesses on the same RNG-derived
service times.

The module also keeps the economy's books.  Rashmi et al.'s
warehouse-cluster study prices repair in three currencies — bytes
crossing the network per failure, disks dragged into each rebuild, and
the latency tax on foreground reads while redundancy is below target.
:class:`RepairLedger` keeps all three: every pass appends a
:class:`RepairEvent`, and the fault reaction's ``annotate`` notes every
degraded read.  Installed as ``cluster.repair_ledger`` it also carries
the repair floor.  The ledger is pure bookkeeping — it never influences
simulated timing.

:func:`maybe_repair` is the notification entry point: it asks the
repair-trigger rule (:func:`repro.core.policy.reaction.repair_trigger`),
dedupes triggers per disk epoch, and defers to a
:class:`RebuildScheduler` when one is supplied — eager, lazy
threshold-triggered or batched, deciding *when* a flagged file is
rebuilt.  :func:`drain_repairs` repairs whatever a scheduler still holds
at the end of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accesscore.timeline import (
    finalize_read,
    serve_read_queues,
    simulate_uniform_write,
)
from repro.coding.lt import ImprovedLTCode, LTGraph
from repro.core.pipeline import PolicyScheme
from repro.core.policy.reaction import DEFAULT_REPAIR_FLOOR, repair_trigger

# ---------------------------------------------------------------------------
# the ledger


@dataclass(frozen=True)
class RepairEvent:
    """One rebuild pass: the bytes it moved, the disks it touched, its time."""

    file_name: str
    #: Coding algorithm that performed the rebuild (``lt``,
    #: ``reed-solomon``, ``regenerating-msr``, ``regenerating-mbr``).
    algorithm: str
    #: Bytes read from helper disks over the network.
    bytes_read_helpers: int
    #: Bytes written to the replacement locations.
    bytes_written: int
    #: Distinct disks that served helper reads or absorbed writes.
    disks_touched: int
    #: Coded blocks destroyed by the failure / recreated by the pass.
    blocks_lost: int
    blocks_rebuilt: int
    #: Coded block size of the repaired file (prices ``blocks_lost``).
    block_bytes: int
    #: Simulated seconds of the helper-read and replacement-write phases.
    read_s: float
    write_s: float

    @property
    def wall_time_s(self) -> float:
        return self.read_s + self.write_s

    @property
    def complete(self) -> bool:
        return self.blocks_rebuilt >= self.blocks_lost

    @property
    def bytes_moved(self) -> int:
        return self.bytes_read_helpers + self.bytes_written


@dataclass
class RepairLedger:
    """Append-only account of rebuild traffic and degraded reads."""

    #: The repair floor while this ledger is installed: a file warrants
    #: repair once its surviving redundancy falls below this fraction of
    #: the redundancy it provisioned.
    floor: float = DEFAULT_REPAIR_FLOOR
    events: list[RepairEvent] = field(default_factory=list)
    #: Foreground reads settled while surviving redundancy sat below the
    #: repair floor, and their summed latency.
    degraded_reads: int = 0
    degraded_read_s: float = 0.0

    def record(self, event: RepairEvent) -> None:
        self.events.append(event)

    def note_degraded_read(self, latency_s: float) -> None:
        self.degraded_reads += 1
        if np.isfinite(latency_s):
            self.degraded_read_s += float(latency_s)

    # -- aggregates -----------------------------------------------------------
    @property
    def repairs(self) -> int:
        return len(self.events)

    @property
    def bytes_read_helpers(self) -> int:
        return sum(e.bytes_read_helpers for e in self.events)

    @property
    def bytes_written(self) -> int:
        return sum(e.bytes_written for e in self.events)

    @property
    def bytes_moved(self) -> int:
        return self.bytes_read_helpers + self.bytes_written

    @property
    def blocks_lost(self) -> int:
        return sum(e.blocks_lost for e in self.events)

    @property
    def wall_time_s(self) -> float:
        return sum(e.wall_time_s for e in self.events)

    def summary(self) -> dict:
        """Aggregate view for experiment rows and traces."""
        lost = self.blocks_lost
        return {
            "repairs": self.repairs,
            "bytes_read_helpers": self.bytes_read_helpers,
            "bytes_written": self.bytes_written,
            "bytes_moved": self.bytes_moved,
            "blocks_lost": lost,
            "disks_touched": sum(e.disks_touched for e in self.events),
            "wall_time_s": self.wall_time_s,
            "degraded_reads": self.degraded_reads,
            "degraded_read_s": self.degraded_read_s,
            #: MB read from helpers per MB of data the failures destroyed —
            #: the Dimakis repair-bandwidth ratio (1.0 is the MBR floor for
            #: exact repair of what was stored).  All events of one run
            #: share the file's block size.
            "read_amplification": (
                self.bytes_read_helpers / lost / self.events[0].block_bytes
                if lost else 0.0
            ),
        }


# ---------------------------------------------------------------------------
# rebuild schedulers: *when* a flagged file is actually repaired
#
# Small per-run mutable queues (unlike the stateless policy singletons of
# repro.core.policy — one scheduler instance serves one run).


@dataclass(frozen=True)
class RepairTask:
    """One flagged file awaiting rebuild."""

    file_name: str
    trial: int
    #: Sorted ids of the permanently-failed disks that triggered the flag.
    dead_disks: tuple[int, ...]
    #: Surviving redundancy at trigger time (e.g. 0.5 = 1.5x the data).
    surviving_redundancy: float


class RebuildScheduler:
    """Base: a FIFO of offered tasks; subclasses decide the release rule."""

    def __init__(self) -> None:
        self._queue: list[RepairTask] = []

    @property
    def pending(self) -> tuple[RepairTask, ...]:
        return tuple(self._queue)

    def offer(self, task: RepairTask) -> list[RepairTask]:
        """Queue ``task``; return every task that should repair *now*.

        A task held for the same file is replaced in its queue position:
        one pass repairs every disk the file has lost by then.
        """
        for pos, held in enumerate(self._queue):
            if held.file_name == task.file_name:
                self._queue[pos] = task
                break
        else:
            self._queue.append(task)
        if self._release(task):
            return self._drain()
        return []

    def flush(self) -> list[RepairTask]:
        """Release everything still queued (end of run / operator drain)."""
        return self._drain()

    def _release(self, task: RepairTask) -> bool:
        raise NotImplementedError

    def _drain(self) -> list[RepairTask]:
        out, self._queue = self._queue, []
        return out


class EagerScheduler(RebuildScheduler):
    """Repair on every trigger, immediately: lowest loss risk, most
    interference with foreground traffic."""

    def _release(self, task: RepairTask) -> bool:
        return True


class LazyThresholdScheduler(RebuildScheduler):
    """Wait until some file's surviving redundancy dips below ``floor``;
    transient failures that recover never cost a repair byte."""

    def __init__(self, floor: float = 0.25) -> None:
        super().__init__()
        self.floor = floor

    def _release(self, task: RepairTask) -> bool:
        return task.surviving_redundancy < self.floor


class BatchedScheduler(RebuildScheduler):
    """Accumulate ``batch_size`` triggers, then drain them together,
    amortising the per-pass disk seeks."""

    def __init__(self, batch_size: int = 4) -> None:
        super().__init__()
        self.batch_size = batch_size

    def _release(self, task: RepairTask) -> bool:
        return len(self._queue) >= self.batch_size


def scheduler_for(policy: str, **kwargs) -> RebuildScheduler:
    """Construct a scheduler by policy name (``eager``/``lazy``/``batched``)."""
    try:
        cls = {
            "eager": EagerScheduler,
            "lazy": LazyThresholdScheduler,
            "batched": BatchedScheduler,
        }[policy]
    except KeyError:
        raise ValueError(f"unknown rebuild policy {policy!r}") from None
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# repair passes


@dataclass(frozen=True)
class RepairDecision:
    """Structured outcome of one fault notification (:func:`maybe_repair`).

    ``triggered`` says whether the file currently warrants repair;
    ``reason`` is one of ``no-faults`` / ``healthy`` / ``duplicate``
    (this disk epoch was already handled) / ``deferred`` (queued by the
    scheduler) / ``repaired``.  ``reports`` carries one
    :class:`RepairEvent` per pass the scheduler released.
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
        scheme.service_rng_factory(trial, "rebuild-read", record.disk_ids),
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


def _write_replacements(scheme, record, trial: int, writes, file_name: str, phase):
    """Commit the replacement queues; return ``(t_write, bytes_written)``.

    Raises before anything reaches the record if a write never commits
    (a replacement disk went down mid-write).  ``phase`` keys the service
    stream: the stripe pass writes on ``rebuild-write``, LT on
    ``repair-write``.
    """
    t_write, net = simulate_uniform_write(
        scheme.cluster,
        record.disk_ids,
        writes,
        scheme.config.block_bytes,
        0.0,
        scheme.service_rng_factory(trial, phase, record.disk_ids),
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
    graph = LTGraph(graph.k, list(graph.neighbors))
    code = ImprovedLTCode(cfg.k, c=cfg.lt_c, delta=cfg.lt_delta)
    rng = scheme.hub.fresh("repair-extend", file_name, trial)
    first_new = graph.n
    code.extend_graph(graph, lost, rng)
    new_ids = list(range(first_new, first_new + lost))

    # 3. Spread the replacements over the healthy disks.
    new_placement = [[] for _ in record.disk_ids]
    for j, bid in enumerate(new_ids):
        new_placement[healthy[j % len(healthy)]].append(bid)
    t_write, write_bytes = _write_replacements(
        scheme, record, trial, new_placement, file_name, "repair-write"
    )

    # 4. Metadata, once the replacements committed: the grown graph, and
    #    the dead positions' blocks swapped for the replacements.
    record.extra["graph"] = graph
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


def _repair_stripes(scheme, file_name: str, trial: int, record, dead, healthy, lost):
    """Stripe repair: ``d`` beta-symbols per lost node, or decode from ``k``."""
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
        if alpha > 1 and len(alive) >= d:
            # Exact regeneration: each lost node pulls one beta-symbol
            # (one block) from d helpers.  At alpha = 1 (an RS word) a
            # beta-symbol is a whole node, so per-node repair would read
            # k blocks per lost node instead of k per stripe.
            for f in lost_nodes:
                for h in alive[:d]:
                    helper_q[node_pos(s, h)].append(
                        (s << 20) | (h * alpha + (f % alpha))
                    )
        else:
            # Whole-stripe rebuild: decode the stripe from k whole nodes,
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
        scheme, record, trial, writes, file_name, "rebuild-write"
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

    Dispatches on the record's coding descriptor: the stripe pass for
    RS words and regenerating stripes (an ``alpha`` key), LT graph
    extension for ``lt``.

    Raises
    ------
    NotImplementedError
        If the layout's algorithm has no repair pass (replication,
        mirrored striping, parity).
    RuntimeError
        If the surviving blocks cannot reconstruct the data (the failure
        exceeded the redundancy).
    """
    record = scheme.metadata.lookup(file_name)
    coding = record.coding
    if "alpha" in coding:
        repair = _repair_stripes
    elif coding["algorithm"] == "lt":
        repair = _repair_lt
    else:
        raise NotImplementedError(
            f"no repair pass for {coding['algorithm']!r} layouts"
        )
    dead = failed_positions(scheme, file_name)
    lost = sum(len(record.placement[i]) for i in dead)
    healthy = [i for i in range(len(record.disk_ids)) if i not in set(dead)]
    if not healthy:
        raise RuntimeError("no surviving disks to repair from")

    # The pass's own helper reads (LT re-reads the whole object through
    # scheme.read) are rebuild traffic, not client traffic: unhook any
    # installed ledger so they don't count as degraded foreground reads.
    ledger = scheme.cluster.repair_ledger
    if ledger is not None:
        scheme.cluster.repair_ledger = None
    try:
        return repair(scheme, file_name, trial, record, dead, healthy, lost)
    finally:
        if ledger is not None:
            scheme.cluster.repair_ledger = ledger


def maybe_repair(scheme, file_name: str, trial: int, scheduler=None) -> RepairDecision:
    """Act on one fault notification; idempotent per disk epoch.

    The trigger is the one rule reads apply
    (:func:`repro.core.policy.reaction.repair_trigger`), evaluated on the
    file's current placement, so every layout repairs under the installed
    ledger's floor, and a file whose repair completed reads ``healthy``.
    Repeated notifications for the same set of dead disks return a
    ``duplicate`` decision without repairing again (a task the scheduler
    is still holding is not queued twice); a new failure starts a new
    epoch, whose task replaces one the scheduler still holds for the
    file.  A pass that raises leaves its epoch unclaimed, so the next
    notification for the same dead set tries again.

    Without a ``scheduler`` every trigger repairs immediately (eager);
    with one, the scheduler decides which queued tasks to release now.
    Executed passes are metered into the cluster's ``repair_ledger``, if
    one is installed.
    """
    record = scheme.metadata.lookup(file_name)
    state = repair_trigger(scheme, record)
    if state is None:
        return RepairDecision(False, "no-faults", (), float("nan"))
    surv, triggered = state
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
    try:
        reports = _repair_and_meter(scheme, released)
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
    return RepairDecision(True, reason, dead, surv, reports, deferred=pending)


def drain_repairs(scheme, scheduler) -> tuple[RepairEvent, ...]:
    """Flush a scheduler's queue and repair everything it was holding.

    The end-of-horizon drain: lazy and batched policies may still be
    sitting on deferred :class:`RepairTask` entries when a run ends.
    """
    return _repair_and_meter(scheme, scheduler.flush())


def _repair_and_meter(scheme, tasks) -> tuple[RepairEvent, ...]:
    """Run each task's repair pass; meter it into the installed ledger."""
    ledger = scheme.cluster.repair_ledger
    reports = []
    for task in tasks:
        reports.append(repair_file(scheme, task.file_name, task.trial))
        if ledger is not None:
            ledger.record(reports[-1])
    return tuple(reports)
