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
timeline mechanics themselves (serve, consume, cancel, account, trace)
live in :mod:`repro.accesscore`; these classes only sequence them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.accesscore.result import AccessResult
from repro.accesscore.routing import request_arrival_time, response_arrival_times
from repro.accesscore.timeline import (
    HANDOFF_BUDGET_PER_DISK,
    adaptive_epilogue,
    completion_with_order,
    consume_sorted_arrivals,
    read_epilogue,
    serve_read_queues,
)
from repro.accesscore.tracing import trace_handoff
from repro.disk.service import BlockService


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
            scheme.service_rng_factory(trial, "read"),
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
    #: ``batch_ids`` as an array, for vectorised eligibility counting.
    ids_arr: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: ``H[batch_ids].cumsum(axis=0)``: ``hold_cum[i, d]`` counts batch
    #: blocks among the first ``i+1`` that disk ``d`` holds replicas of,
    #: so the victim scan reads any thief's pending-eligible count with
    #: two scalar lookups instead of a fancy-index per candidate.
    hold_cum: np.ndarray | None = None
    completions: np.ndarray = field(default_factory=lambda: np.empty(0))
    ready: float = 0.0
    version: int = 0
    batch_start: float = 0.0
    avg_block_s: float = float("inf")  # client's observed per-block time

    def pending_at(self, t: float) -> tuple[int, list[int]]:
        """(#fully served, ids not fully received) at time ``t``.

        The block in flight at ``t`` counts as *unreceived*: cancellation
        works at physical-request granularity (§5.3.3), so a partially
        transferred block can be abandoned and re-requested elsewhere.
        """
        done = int(self.completions.searchsorted(t, side="right"))
        return done, self.batch_ids[done:]

    def inflight_at(self, t: float) -> int | None:
        """Id of the block being served at ``t``, if any."""
        done = int(self.completions.searchsorted(t, side="right"))
        if done < len(self.batch_ids):
            start = float(self.completions[done - 1]) if done > 0 else self.batch_start
            if start < t:  # its service actually began before t
                return self.batch_ids[done]
        return None


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
        cfg = scheme.config
        completion = spec.completion
        disks = plan.disk_ids
        file_name = record.name
        rng_for = scheme.service_rng_factory(trial, "read")
        t0 = scheme.open_latency()

        # The placement's adaptive view: round-1 unit ids per disk index,
        # and which disks can serve each unit.  Unit ids are normalised to
        # native ints here, once — every downstream list (batches, steal
        # and keep sets, arrival records) inherits them unconverted.
        primaries, holder_map = spec.placement.adaptive_units(cfg, record)
        primaries = [[int(b) for b in ids] for ids in primaries]

        def holders(block: int) -> set[int]:
            """Disk indices holding a copy of ``block``."""
            return holder_map.get(block, set())

        # Dense holder matrix: H[unit, disk idx] — lets the victim scan
        # count a disk's eligible pending units in one vector op instead
        # of a per-unit set probe.
        if holder_map:
            n_units = 1 + max(
                max(holder_map),
                max((max(ids) for ids in primaries if ids), default=0),
            )
            H = np.zeros((n_units, len(disks)), dtype=bool)
            for unit, holder_set in holder_map.items():
                H[unit, list(holder_set)] = True
        else:
            H = None  # single-holder layout: nothing is ever eligible

        phase_rng_for = getattr(rng_for, "phase_rng_for", None)
        runs: list[_DiskRun] = []
        for idx, disk_id in enumerate(disks):
            filer = scheme.cluster.filer_of_disk(int(disk_id))
            runs.append(
                _DiskRun(
                    disk_id=int(disk_id),
                    idx=idx,
                    svc=scheme.cluster.block_service(
                        int(disk_id),
                        rng_for(int(disk_id)),
                        phase_rng_for=phase_rng_for,
                    ),
                    one_way=filer.link.one_way_s,
                    ready=request_arrival_time(
                        scheme.cluster, int(disk_id), t0, filer.link.one_way_s
                    ),
                )
            )

        # Victim-scan index: ready_arr[i] mirrors runs[i].ready for runs
        # with a live batch and -inf for drained ones, so one vectorised
        # compare yields the runs worth scanning at a decision point.
        ready_arr = np.full(len(runs), -np.inf)
        arrivals: list[tuple[float, int]] = []
        events: list[tuple[float, int, int]] = []  # (finish, disk idx, version)
        rounds = 1
        blocks_fetched = 0
        served_by: dict[int, int] = {}
        partial_bytes = 0.0  # fractions delivered by victims before hand-off
        partial_by_disk = np.zeros(len(disks))  # the same fractions, per victim
        # Plain-text replicas let the client assemble a block from fractions
        # fetched off different disks (§6.3.1): frac[bid] is the portion
        # still to fetch after mid-transfer hand-offs.
        frac: dict[int, float] = {}

        tracer = scheme.tracer

        def serve_batch(run: _DiskRun, ids: list[int], t_start: float) -> None:
            nonlocal blocks_fetched, partial_bytes
            run.version += 1
            # Callers pass fresh lists of native ints (primaries are
            # normalised once, steal/keep are new listcomps), so the batch
            # adopts the list without a per-element conversion pass.
            run.batch_ids = ids
            run.ids_arr = np.asarray(ids, dtype=np.int64)
            if not ids:
                # Drained by theft: the disk is idle *now* and must still
                # get its hand-off decision, or it would never steal again.
                run.completions = np.empty(0)
                run.ready = t_start
                ready_arr[run.idx] = -np.inf
                heapq.heappush(events, (t_start, run.idx, run.version))
                return
            ids = run.batch_ids
            run.hold_cum = (
                H[run.ids_arr].cumsum(axis=0, dtype=np.int32) if H is not None else None
            )
            services = run.svc.block_service_times(len(ids), cfg.block_bytes)
            if frac:
                # x * 1.0 is exact, so skipping the multiply when no block
                # is fractional is bit-identical.
                services *= np.array([frac.get(b, 1.0) for b in ids])
                frac_total = max(1e-9, sum(frac.get(b, 1.0) for b in ids))
            else:
                frac_total = float(len(ids))
            # Callers pass the true start (request arrival / in-flight end);
            # the previous batch's `ready` is stale after a cancellation.
            run.batch_start = t_start
            run.completions = run.svc.completions(
                services,
                t_start,
                reqs_per_item=run.svc.requests_per_block(cfg.block_bytes),
            )
            # What the client *observes*: wall time per block including
            # background dilation — the honest basis for steal decisions.
            run.avg_block_s = (float(run.completions[-1]) - t_start) / frac_total
            # One vectorised network hop for the whole batch; the link
            # timeline maps ready times elementwise, so this matches the
            # per-block calls exactly.
            t_clients = np.asarray(
                response_arrival_times(
                    scheme.cluster, run.disk_id, run.completions, run.one_way
                ),
                dtype=np.float64,
            )
            # C-level bulk append/merge: zip builds the (t, bid) tuples and
            # fromkeys the served_by entries without a Python-level loop.
            arrivals.extend(zip(t_clients.tolist(), ids))
            served_by.update(dict.fromkeys(ids, run.idx))
            blocks_fetched += len(ids)
            run.ready = float(run.completions[-1])
            ready_arr[run.idx] = run.ready
            if tracer.enabled and np.isfinite(run.ready):
                tracer.span(
                    "drive.batch",
                    "drive",
                    t_start,
                    run.ready,
                    track="drive",
                    args={"disk": run.disk_id, "blocks": len(ids)},
                )
            heapq.heappush(events, (run.ready, run.idx, run.version))

        # Round 1: each unit's primary disk.  Filesystem-cache hits are
        # served by the filer at request time and never queue at disks.
        cache_hits = 0
        for idx, run in enumerate(runs):
            ids = primaries[idx]
            filer = scheme.cluster.filer_of_disk(run.disk_id)
            cached = filer.cached_blocks(file_name, ids)
            hit_ids = [b for b, c in zip(ids, cached) if c]
            for b in hit_ids:
                t_client = response_arrival_times(
                    scheme.cluster, run.disk_id, run.ready, run.one_way
                )
                arrivals.append((float(t_client), int(b)))
                served_by[int(b)] = idx
            filer.record_read(file_name, hit_ids, cfg.block_bytes)
            cache_hits += len(hit_ids)
            blocks_fetched += len(hit_ids)
            serve_batch(run, [b for b, c in zip(ids, cached) if not c], run.ready)

        # Adaptive hand-offs, up to the shared safety-valve budget.
        handoff_budget = HANDOFF_BUDGET_PER_DISK * len(disks)
        while events:
            finish, a_idx, version = heapq.heappop(events)
            a = runs[a_idx]
            if version != a.version:
                continue  # stale: this disk's plan was revised
            if rounds > handoff_budget:
                continue
            t_dec = finish + a.one_way  # client learns disk A drained

            # Victim: most unserved blocks that A holds replicas of.  The
            # strict ``>`` keeps the seed's first-wins tie-breaking; only
            # the count matters for selection, so the eligible *list* is
            # materialised for the winner alone (below, at t_cancel).
            best_b, best_cnt = None, 0
            if H is not None:
                # Drained runs are the common case late in the access: one
                # vectorised compare over the ready index yields only the
                # runs still serving past t_dec (side="right" below makes
                # ready <= t_dec exactly the all-served condition, and
                # drained/empty runs sit at -inf), in index order — the
                # same first-wins tie-breaking as the full scan.
                for b_idx in np.nonzero(ready_arr > t_dec)[0].tolist():
                    if b_idx == a_idx:
                        continue
                    b = runs[b_idx]
                    done = int(b.completions.searchsorted(t_dec, side="right"))
                    cum = b.hold_cum
                    cnt = int(cum[-1, a_idx])
                    if done:
                        cnt -= int(cum[done - 1, a_idx])
                    if cnt > best_cnt:
                        best_b, best_cnt = b_idx, cnt
            if best_b is None:
                continue  # nothing worth stealing; A idles

            b = runs[best_b]
            rounds += 1
            t_cancel = t_dec + b.one_way
            trace_handoff(tracer, t_dec, rounds, a.disk_id, b.disk_id, best_cnt)
            done, remaining = b.pending_at(t_cancel)
            inflight = b.inflight_at(t_cancel)
            elig = [x for x in remaining if a_idx in holders(x)]
            steal_set = set(elig[len(elig) // 2 :])  # the second half
            if len(elig) == 1:
                # Hand-off of a victim's last block: only worthwhile when
                # the thief is clearly faster (the client compares observed
                # disk performance, §5.3.1) — otherwise two idle disks
                # would bounce the block forever.
                x = elig[0]
                f = frac.get(x, 1.0)
                if x == inflight:
                    pos_x = b.batch_ids.index(x)
                    victim_left = float(b.completions[pos_x]) - t_cancel
                else:
                    victim_left = b.avg_block_s * f
                thief_time = a.avg_block_s * f + 3 * a.one_way
                if not thief_time < 0.5 * victim_left:
                    continue
            if not steal_set:
                continue
            steal = [x for x in remaining if x in steal_set]
            keep = [x for x in remaining if x not in steal_set]

            # Remove the stale arrivals B would have produced for its
            # cancelled tail (and its kept blocks, which get re-timed).
            # One filtering pass drops every match — the same set the
            # seed's repeated ``list.remove`` deleted, without the O(n²).
            cancelled = set(remaining)
            n_before = len(arrivals)
            arrivals[:] = [item for item in arrivals if item[1] not in cancelled]
            blocks_fetched -= n_before - len(arrivals)

            # The block B is transferring when the cancel lands: if stolen,
            # only its unfetched fraction moves (plain-text replicas can be
            # assembled from fractions across disks, §6.3.1); if kept, B
            # finishes it undisturbed.
            b_start = t_cancel
            if inflight is not None:
                pos = b.batch_ids.index(inflight)
                c_if = float(b.completions[pos])
                if inflight in steal_set:
                    # A failed victim (infinite completion) made no
                    # progress: the whole block moves.
                    if np.isfinite(c_if):
                        start_if = float(b.completions[pos - 1]) if pos > 0 else t_cancel
                        dur = max(c_if - start_if, 1e-12)
                        left = min(1.0, max(0.0, (c_if - t_cancel) / dur))
                        before = frac.get(inflight, 1.0)
                        sent = before * (1.0 - left) * cfg.block_bytes
                        partial_bytes += sent
                        partial_by_disk[b.idx] += sent
                        frac[inflight] = before * left
                elif np.isfinite(c_if):
                    t_client = response_arrival_times(
                        scheme.cluster, b.disk_id, c_if, b.one_way
                    )
                    arrivals.append((float(t_client), int(inflight)))
                    blocks_fetched += 1
                    keep = [x for x in keep if x != inflight]
                    b_start = c_if
            serve_batch(b, keep, b_start)
            serve_batch(a, steal, t_dec + a.one_way)

        # Completion: feed arrivals to the composition's tracker in order,
        # through the access-core's one consumption loop.
        arrivals.sort()
        tracker = completion.tracker(scheme, record, plan)
        if arrivals:
            t_arr, b_arr = zip(*arrivals)
            times = np.array(t_arr, dtype=np.float64)
            ids = np.array(b_arr, dtype=np.int64)
        else:
            times = np.empty(0, dtype=np.float64)
            ids = np.empty(0, dtype=np.int64)
        t_fill, consumed = consume_sorted_arrivals(tracker, times, ids)
        # Each disk sent the blocks it served (cache hits included) plus
        # the fractions it delivered before handing a block off.
        served = np.bincount(
            np.fromiter(served_by.values(), np.int64, len(served_by)),
            minlength=len(runs),
        )
        return adaptive_epilogue(
            scheme, spec, record, plan, trial,
            tracker, t_fill, consumed, ids[:consumed].tolist(), rounds, t0,
            disk_sent=(served * cfg.block_bytes + partial_by_disk).tolist(),
            blocks_sent=blocks_fetched,
            cache_hits=cache_hits,
            partial_bytes=partial_bytes,
            served_by=served_by,
        )
