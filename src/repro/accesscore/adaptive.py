"""The adaptive (work-stealing) read of §6.2.1: each rule written once.

Both engines decide with the rules here: the hand-off budget, victim
choice, the second-half steal, the last-block pace test and round 1's
filer-cache split.  :class:`AdaptiveRead` is the closed form behind
:class:`~repro.core.policy.dispatch.AdaptiveDispatch`, in the steps of the
event engine's :class:`~repro.accesscore.events.AdaptiveClient`; its
per-access state lives here because policy classes are stateless (SIM007).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.accesscore.result import AccessResult
from repro.accesscore.routing import request_arrival_time, response_arrival_times
from repro.accesscore.timeline import adaptive_epilogue, consume_sorted_arrivals
from repro.accesscore.tracing import trace_handoff
from repro.disk.service import BlockService

#: Adaptive reads stop re-planning after this many hand-offs per disk and
#: let the outstanding queues drain — a safety valve far above any sane
#: hand-off count, shared by both engines.
HANDOFF_BUDGET_PER_DISK = 50


def pick_victim(counts, thief: int) -> tuple[int | None, int]:
    """``(victim, count)``: the disk with the most units eligible for
    ``thief`` (``counts``, per disk index, zeroed at the thief), the lowest
    index among ties; ``(None, 0)`` when no disk has any."""
    counts[thief] = 0
    victim = int(np.argmax(counts))
    count = int(counts[victim])
    return (victim, count) if count > 0 else (None, 0)


def second_half(elig: list) -> list:
    """What a thief steals: the second half of the victim's eligible units."""
    return elig[len(elig) // 2 :]


def worth_last_block(thief_pace: float, thief_one_way: float, victim_left: float) -> bool:
    """Hand-off of a victim's last block: only worthwhile when the thief
    is clearly faster (the client compares observed disk performance,
    §5.3.1) — otherwise two idle disks would bounce the block forever."""
    return thief_pace + 3 * thief_one_way < 0.5 * victim_left


def split_round1(filer, file_name: str, ids: list, block_bytes: int) -> tuple[list, list]:
    """Round 1 at one filer: ``(hits, queued)``.  Filesystem-cache hits
    are served by the filer at request time and never queue at disks."""
    cached = filer.cached_blocks(file_name, ids)
    hits = [b for b, c in zip(ids, cached) if c]
    filer.record_read(file_name, hits, block_bytes)
    return hits, [b for b, c in zip(ids, cached) if not c]


@dataclass(eq=False)
class _DiskRun:
    """Per-disk adaptive-read state.

    ``eq=False``: runs are identity-keyed (the generated field-wise
    ``__eq__`` made every ``runs.index(run)`` an O(fields) comparison per
    element — millions of calls on the hot path); ``idx`` carries the
    run's position outright.
    """

    disk_id: int
    idx: int
    svc: BlockService
    one_way: float
    batch_ids: list[int] = field(default_factory=list)
    completions: np.ndarray = field(default_factory=lambda: np.empty(0))
    version: int = 0
    batch_start: float = 0.0
    avg_block_s: float = float("inf")  # client's observed per-block time

    def split_at(self, t: float) -> tuple[int, list[int], int | None]:
        """``(done, remaining, in flight)`` at ``t``: how many blocks were
        fully served, the ids not fully received, and the block in service.

        The block in flight at ``t`` counts as *unreceived*: cancellation
        works at physical-request granularity (§5.3.3), so a partially
        transferred block can be abandoned and re-requested elsewhere.  It
        sits at position ``done``, first of ``remaining``.
        """
        done = int(self.completions.searchsorted(t, side="right"))
        remaining = self.batch_ids[done:]
        start = float(self.completions[done - 1]) if done > 0 else self.batch_start
        if remaining and start < t:  # its service actually began before t
            return done, remaining, remaining[0]
        return done, remaining, None


class VictimIndex:
    """The adaptive read's victim scan over every run at once.

    Two arrays, refreshed whenever a run gets a new batch: a padded
    (run, position) completion matrix, ``inf`` past each batch, and a
    (run, position, thief) hold-count table: ``holds[r, p, a]`` counts the
    blocks at positions ``p`` and later of run ``r``'s batch that disk
    index ``a`` holds a copy of, zero from the batch's end on.  Batch
    completions are sorted, so a run's served prefix at ``t`` is its count
    of completions ``<= t`` (``searchsorted(side="right")``), and the
    thief's eligible count behind it is one gather.  Drained and fully
    served runs count zero without a separate liveness test.
    """

    def __init__(self, holders: np.ndarray, width: int) -> None:
        n_runs = holders.shape[1]
        #: ``holders[unit, a]``: disk index ``a`` holds a copy of ``unit``.
        self.holders = holders
        self.completions = np.full((n_runs, width), np.inf)
        self.holds = np.zeros((n_runs, width + 1, n_runs), dtype=np.int32)
        self._runs = np.arange(n_runs)

    def refresh(self, run: int, ids: list[int], completions: np.ndarray) -> None:
        """Install run ``run``'s new batch (``completions`` sorted)."""
        n = len(ids)
        self.completions[run, :n] = completions
        self.completions[run, n:] = np.inf
        held = self.holders[np.asarray(ids, dtype=np.int64)]
        self.holds[run, :n] = held[::-1].cumsum(axis=0, dtype=np.int32)[::-1]
        self.holds[run, n:] = 0

    def pick(self, thief: int, t: float) -> tuple[int | None, int]:
        """:func:`pick_victim` over the unserved blocks at ``t`` that
        ``thief`` holds."""
        served = (self.completions <= t).sum(axis=1)
        return pick_victim(self.holds[self._runs, served, thief], thief)


class ArrivalLog:
    """The adaptive read's client arrivals, as ``(time, block id)`` pairs.

    ``settled`` holds the arrivals no batch can cancel any more: round-1
    cache hits, the batches runs finished or were cut back to, and
    in-flight blocks a victim completes.  ``batches[r]`` holds run ``r``'s
    current batch, aligned with its ``batch_ids``.  A block is in one
    batch at a time, so a hand-off's cancelled blocks are exactly the
    victim's arrivals past its served prefix: a trim of one list.
    """

    def __init__(self, n_runs: int) -> None:
        self.settled: list[tuple[float, int]] = []
        self.batches: list[list[tuple[float, int]]] = [[] for _ in range(n_runs)]

    def settle(self, t: float, block: int) -> None:
        self.settled.append((t, block))

    def start_batch(self, run: int, arrivals: list[tuple[float, int]]) -> None:
        """Settle run ``run``'s previous batch; ``arrivals`` is its new one."""
        self.settled.extend(self.batches[run])
        self.batches[run] = arrivals

    def cancel(self, run: int, done: int) -> int:
        """Drop run ``run``'s arrivals past its first ``done``; return how
        many were dropped."""
        batch = self.batches[run]
        dropped = len(batch) - done
        del batch[done:]
        return dropped

    def ordered(self) -> list[tuple[float, int]]:
        """Every arrival, sorted by time (then block id)."""
        arrivals = self.settled + [item for batch in self.batches for item in batch]
        arrivals.sort()
        return arrivals


class AdaptiveRead:
    """One closed-form adaptive read, in :class:`AdaptiveClient`'s steps.

    Batches are computed timelines, so a disk's pace is its batch average
    and a stolen in-flight block moves as a fraction; :meth:`read` makes
    the hand-off decisions in drain order.
    """

    def __init__(self, scheme, spec, record, plan, trial: int) -> None:
        self.scheme = scheme
        self.spec = spec
        self.record = record
        self.plan = plan
        self.trial = trial
        self.cluster = cluster = scheme.cluster
        self.block_bytes = scheme.config.block_bytes
        disks = [int(d) for d in plan.disk_ids]
        rng_for = scheme.service_rng_factory(trial, "read", plan.disk_ids)
        self.t0 = scheme.open_latency()

        # The placement's adaptive view: round-1 unit ids per disk index,
        # and which disks can serve each unit.  Unit ids are normalised to
        # native ints here, once — every downstream list (batches, steal
        # and keep sets, arrival records) inherits them unconverted.
        primaries, self.holder_map = spec.placement.adaptive_units(scheme.config, record)
        self.primaries = [[int(b) for b in ids] for ids in primaries]

        # Dense holder matrix H[unit, disk idx] behind the victim scan;
        # every primary is a holder_map key, so the keys bound the units.
        # Batches only shrink (keep and steal sets split a victim's
        # remaining work), so the longest primary list bounds them all.
        H = np.zeros((1 + max(self.holder_map, default=0), len(disks)), dtype=bool)
        H[
            [unit for unit, held in self.holder_map.items() for _ in held],
            [idx for held in self.holder_map.values() for idx in held],
        ] = True
        self.victims = VictimIndex(H, max(map(len, self.primaries), default=0))

        phase_rng_for = getattr(rng_for, "phase_rng_for", None)
        self.runs: list[_DiskRun] = []
        for idx, disk_id in enumerate(disks):
            one_way = cluster.filer_of_disk(disk_id).link.one_way_s
            svc = cluster.block_service(disk_id, rng_for(disk_id), phase_rng_for=phase_rng_for)
            self.runs.append(_DiskRun(disk_id, idx, svc, one_way))

        self.log = ArrivalLog(len(disks))
        self.events: list[tuple[float, int, int]] = []  # (finish, disk idx, version)
        self.rounds = 1
        self.cache_hits = 0
        self.served_by: dict[int, int] = {}
        self.partial_bytes = 0.0  # fractions delivered by victims before hand-off
        self.partial_by_disk = np.zeros(len(disks))  # the same fractions, per victim
        # Plain-text replicas let the client assemble a block from fractions
        # fetched off different disks (§6.3.1): frac[bid] is the portion
        # still to fetch after mid-transfer hand-offs.
        self.frac: dict[int, float] = {}

    def read(self) -> AccessResult:
        for run in self.runs:
            self.round1(run)
        # Adaptive hand-offs, up to the shared safety-valve budget.  A
        # stale entry's disk had its plan revised since it was queued.
        budget = HANDOFF_BUDGET_PER_DISK * len(self.runs)
        while self.events:
            finish, idx, version = heapq.heappop(self.events)
            thief = self.runs[idx]
            if version == thief.version and self.rounds <= budget:
                # The client learns the disk drained one one-way later.
                self.steal(thief, finish + thief.one_way)
        return self.settle()

    def round1(self, run: _DiskRun) -> None:
        """Request one disk's primaries; the filer answers its cache hits."""
        t_arrive = request_arrival_time(self.cluster, run.disk_id, self.t0, run.one_way)
        filer = self.cluster.filer_of_disk(run.disk_id)
        ids = self.primaries[run.idx]
        hits, queued = split_round1(filer, self.record.name, ids, self.block_bytes)
        for b in hits:
            t_client = response_arrival_times(self.cluster, run.disk_id, t_arrive, run.one_way)
            self.log.settle(float(t_client), b)
            self.served_by[b] = run.idx
        self.cache_hits += len(hits)
        self.serve_batch(run, queued, t_arrive)

    def serve_batch(self, run: _DiskRun, ids: list[int], t_start: float) -> None:
        """Start ``ids`` as the run's batch at ``t_start``: when the request
        reaches the disk, or when the disk ends the in-flight block it keeps.

        An empty batch means the disk was drained by theft: it is idle *now*
        and must still get its hand-off decision, or it would never steal
        again.
        """
        run.version += 1
        # Callers pass fresh lists of native ints (primaries are
        # normalised once, steal/keep are new lists), so the batch adopts
        # the list without a per-element conversion pass.
        run.batch_ids = ids
        run.completions = np.empty(0)
        ready = t_start
        arrivals = []
        if ids:
            services = run.svc.block_service_times(len(ids), self.block_bytes)
            if self.frac:
                # x * 1.0 is exact, so skipping the multiply when no block
                # is fractional is bit-identical.
                services *= np.array([self.frac.get(b, 1.0) for b in ids])
                frac_total = max(1e-9, sum(self.frac.get(b, 1.0) for b in ids))
            else:
                frac_total = float(len(ids))
            run.batch_start = t_start
            run.completions = run.svc.completions(services, t_start)
            ready = float(run.completions[-1])
            # What the client *observes*: wall time per block including
            # background dilation — the honest basis for steal decisions.
            run.avg_block_s = (ready - t_start) / frac_total
            # One vectorised network hop for the whole batch; the link
            # timeline maps ready times elementwise, so this matches the
            # per-block calls exactly.
            t_clients = response_arrival_times(
                self.cluster, run.disk_id, run.completions, run.one_way
            )
            # C-level bulk build/merge: zip builds the (t, bid) tuples and
            # fromkeys the served_by entries without a Python-level loop.
            arrivals = list(zip(t_clients.tolist(), ids))
            self.served_by.update(dict.fromkeys(ids, run.idx))
            if self.scheme.tracer.enabled and np.isfinite(ready):
                self.scheme.tracer.span(
                    "drive.batch",
                    "drive",
                    t_start,
                    ready,
                    track="drive",
                    args={"disk": run.disk_id, "blocks": len(ids)},
                )
        self.log.start_batch(run.idx, arrivals)
        self.victims.refresh(run.idx, ids, run.completions)
        heapq.heappush(self.events, (ready, run.idx, run.version))

    def steal(self, a: _DiskRun, t_dec: float) -> None:
        """The client learned at ``t_dec`` that disk ``a`` drained: find a
        victim and hand ``a`` the second half of its eligible units."""
        # Victim: most unserved blocks that A holds replicas of.  Only the
        # count matters for selection, so the eligible *list* is
        # materialised for the winner alone (below, at t_cancel).
        best, count = self.victims.pick(a.idx, t_dec)
        if best is None:
            return  # nothing worth stealing; A idles
        b = self.runs[best]
        # Defect (e), ROADMAP item 3: the hand-off is counted here, before
        # the tests below that may reject it, so a rejected decision still
        # lands in rounds, in the trace and against the budget.
        self.rounds += 1
        t_cancel = t_dec + b.one_way
        trace_handoff(self.scheme.tracer, t_dec, self.rounds, a.disk_id, b.disk_id, count)
        done, remaining, inflight = b.split_at(t_cancel)
        elig = [x for x in remaining if a.idx in self.holder_map.get(x, ())]
        if len(elig) == 1:
            # Pace is observed per batch, but an in-flight block's end is known.
            f = self.frac.get(elig[0], 1.0)
            if elig[0] == inflight:
                victim_left = float(b.completions[done]) - t_cancel
            else:
                victim_left = b.avg_block_s * f
            if not worth_last_block(a.avg_block_s * f, a.one_way, victim_left):
                return
        steal = second_half(elig)
        if not steal:
            return
        steal_set = set(steal)
        keep = [x for x in remaining if x not in steal_set]

        # Drop the stale arrivals B would have produced for its
        # cancelled tail (and its kept blocks, which get re-timed).
        self.log.cancel(b.idx, done)

        # The block B is transferring when the cancel lands: if stolen,
        # only its unfetched fraction moves (plain-text replicas can be
        # assembled from fractions across disks, §6.3.1); if kept, B
        # finishes it undisturbed.
        b_start = t_cancel
        if inflight is not None:
            c_if = float(b.completions[done])
            if inflight in steal_set:
                # A failed victim (infinite completion) made no
                # progress: the whole block moves.
                if np.isfinite(c_if):
                    start_if = float(b.completions[done - 1]) if done > 0 else t_cancel
                    dur = max(c_if - start_if, 1e-12)
                    left = min(1.0, max(0.0, (c_if - t_cancel) / dur))
                    before = self.frac.get(inflight, 1.0)
                    sent = before * (1.0 - left) * self.block_bytes
                    self.partial_bytes += sent
                    self.partial_by_disk[b.idx] += sent
                    self.frac[inflight] = before * left
            elif np.isfinite(c_if):
                t_client = response_arrival_times(self.cluster, b.disk_id, c_if, b.one_way)
                self.log.settle(float(t_client), inflight)
                keep = keep[1:]  # the in-flight block leads the kept ones
                b_start = c_if
        self.serve_batch(b, keep, b_start)
        self.serve_batch(a, steal, t_dec + a.one_way)

    def settle(self) -> AccessResult:
        """Feed the arrivals to the composition's tracker in order,
        through the access core's one consumption loop, and settle."""
        arrivals = self.log.ordered()
        tracker = self.spec.completion.tracker(self.scheme, self.record, self.plan)
        times = np.fromiter((t for t, _ in arrivals), np.float64, len(arrivals))
        ids = np.fromiter((b for _, b in arrivals), np.int64, len(arrivals))
        t_fill, consumed = consume_sorted_arrivals(tracker, times, ids)
        # Each disk sent the blocks it served (cache hits included) plus
        # the fractions it delivered before handing a block off.
        served_by = self.served_by
        served = np.bincount(
            np.fromiter(served_by.values(), np.int64, len(served_by)), minlength=len(self.runs)
        )
        return adaptive_epilogue(
            self.scheme, self.spec, self.record, self.plan, self.trial,
            tracker, t_fill, consumed, ids[:consumed].tolist(), self.rounds, self.t0,
            disk_sent=(served * self.block_bytes + self.partial_by_disk).tolist(),
            blocks_sent=len(arrivals),  # every arrival is a block some disk sent
            cache_hits=self.cache_hits,
            partial_bytes=self.partial_bytes,
            served_by=served_by,
        )
