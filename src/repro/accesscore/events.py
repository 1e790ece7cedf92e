"""Event-driven wrapper of the access core: the §6.2.2 simulator, literally.

Every entity — client, filer link, drive, background generator, fault
pump — is a discrete-event entity on the :mod:`repro.sim` kernel,
exactly as Figure 6-3 draws the simulator: the clients, hops and fault
pump are processes, the drives and their background streams run on
kernel callbacks.  One access runs on an
:class:`EventRun`: the kernel, one :class:`EventDrive` per disk, the fault
pump (wired there, the single DES fault wiring site) and the request,
response and cancel hops.  A read's client is the DES twin of
its composition's dispatch policy: a :class:`SpeculativeClient` requests
everything and cancels at completion, an :class:`AdaptiveClient` steals
work between real drive queues.

The *semantics* are not re-implemented here: reads are planned by the
composition's reaction policy, consumed through the completion policy's
tracker, retried through ``reaction.retry_targets``, and settled through
the closed form's own epilogues
(:func:`~repro.accesscore.timeline.read_epilogue`,
:func:`~repro.accesscore.timeline.adaptive_epilogue`); writes build their
supply and stop rule from the write policy.  What this module adds is
*time*: requests queue at :class:`repro.disk.drive.DiskDrive` entities,
contend with background streams and other clients, and get flipped
mid-service by the fault pump.

Layering rule: this module never imports :mod:`repro.core`.  Policy
objects arrive duck-typed on the scheme (``scheme.spec``), so the core
stays importable from either direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accesscore.adaptive import (
    HANDOFF_BUDGET_PER_DISK, pick_victim, second_half, split_round1, worth_last_block,
)
from repro.accesscore.result import AccessResult
from repro.accesscore.routing import request_arrival_time, response_arrival_times
from repro.accesscore.timeline import (
    DiskStream,
    adaptive_epilogue,
    failed_write_result,
    read_epilogue,
)
from repro.accesscore.tracing import trace_handoff
from repro.disk.drive import DiskDrive, DiskRequest
from repro.disk.geometry import SECTOR_BYTES
from repro.disk.workload import BackgroundWorkload
from repro.sim import Environment, Store
from repro.sim.rng import stable_seed

_INF = float("inf")


@dataclass
class EventAccess:
    """Outcome of one event-driven read.

    ``result`` is the first client's full metrics, settled through the
    shared access-core epilogue — same shape as a closed-form read;
    ``per_client`` maps every client id to its latency.
    """

    result: AccessResult
    per_client: dict


class EventDrive:
    """A drive entity whose per-block service times follow the same
    distribution as :class:`repro.disk.service.BlockService`.

    The drive serves whole data blocks: each is one queue entry whose
    service time is sampled from the disk's (blocking factor, p_seq, zone)
    state — identical inputs to the closed-form engine, so the two engines
    are statistically comparable.  Requests from different clients and the
    background stream share the drive's fair-share queue.
    Statically failed disks (the environment's fail-stop draw) start in
    the failed state, so submissions resolve to ``inf`` like the closed
    form's warped completions.
    """

    def __init__(
        self,
        env: Environment,
        cluster,
        disk_id: int,
        rng: np.random.Generator,
        block_bytes: int,
    ) -> None:
        self.env = env
        self.disk_id = disk_id
        self.block_bytes = block_bytes
        self.svc = cluster.block_service(disk_id, rng)
        self.rng = rng
        self.mechanics = mech = cluster.mechanics
        self.state = state = cluster.disk_state(disk_id)
        # The block-service sampler substitutes for the drive's
        # sector-level timing so both engines draw from one distribution;
        # the drive needs no rng of its own.
        self.drive = DiskDrive(env, mech, service_time_fn=self._service_time)
        if state.failed:
            self.drive.failed = True
        if state.background is not None:
            self.drive.attach_background(
                BackgroundWorkload(
                    state.background.interval_s,
                    np.random.default_rng(stable_seed(disk_id, "bg")),
                )
            )

    def _service_time(self, req: DiskRequest) -> float:
        if req.is_background:
            state = self.state
            bg = state.background
            if bg is None:
                return 0.005
            # BackgroundLoad.sample_services(1, ...) in floats: the same
            # draw and the same order of additions, so the same bits.
            mech = self.mechanics
            spec = mech.spec
            return (
                spec.controller_overhead_s
                + self.rng.random() * spec.rotation_period_s
                + float(mech.transfer_time(bg.sectors, state.spt))
            )
        return float(self.svc.block_service_times(1, self.block_bytes)[0])

    def submit_block(self, tag) -> DiskRequest:
        sectors = max(1, self.block_bytes // SECTOR_BYTES)
        return self.drive.submit(DiskRequest(lba=0, sectors=sectors, tag=tag))

    def cancel_client(self, client_id) -> int:
        """Cancel every queued foreground request of one client."""
        return self.drive.cancel(
            lambda r: not r.is_background and r.tag[0] == client_id
        )

    def cancel_blocks(self, client_id, block_ids) -> int:
        """Cancel a client's queued requests for specific blocks."""
        ids = {int(b) for b in block_ids}
        return self.drive.cancel(
            lambda r: not r.is_background
            and r.tag[0] == client_id
            and int(r.tag[1]) in ids
        )


class EventRun:
    """One access on the DES kernel: drives, fault pump and message hops.

    Holds the environment, one :class:`EventDrive` per disk on the
    scheme's ``refsvc`` streams, each disk's one-way link latency and the
    open latency ``t0``.  The single site that puts the cluster's fault
    plan on a DES run: fail-stops flush and abort real queues, recoveries
    restart them, slowdowns stretch in-progress service.  The helpers are
    plain calls or ``yield from`` sub-generators, so using one adds no
    process, timeout or event to the run.
    """

    def __init__(self, scheme, disk_ids, trial: int) -> None:
        self.env = env = Environment()
        self.cluster = cluster = scheme.cluster
        rng_for = scheme.reference_rng_factory(trial, disk_ids)
        block_bytes = scheme.config.block_bytes
        self.drives = {
            int(d): EventDrive(env, cluster, int(d), rng_for(int(d)), block_bytes)
            for d in disk_ids
        }
        injector = cluster.faults
        if injector is not None and injector.has_faults:
            injector.schedule_on(env, {d: ed.drive for d, ed in self.drives.items()})
        self.one_way = {d: cluster.filer_of_disk(d).link.one_way_s for d in self.drives}
        self.t0 = scheme.open_latency()

    def reach(self, d: int):
        """The request hop to disk ``d``; ``False`` when it never arrives."""
        t = request_arrival_time(self.cluster, d, self.env.now, self.one_way[d])
        if not np.isfinite(t):
            return False
        yield self.env.timeout(t - self.env.now)
        return True

    def response(self, d: int, finished) -> float:
        """Client arrival time of a block disk ``d`` finished, or ``inf``
        (``finished`` is ``None`` when cancelled in queue, ``inf`` when
        flushed or aborted by a fail-stop: neither crosses the network)."""
        if finished is None or not np.isfinite(finished):
            return _INF
        return float(response_arrival_times(self.cluster, d, finished, self.one_way[d]))

    def travel(self, t: float):
        """Wait until ``t``; return the arrival time (``inf``: never)."""
        if not np.isfinite(t):
            return _INF
        yield self.env.timeout(t - self.env.now)
        return self.env.now

    def push(self, d: int, blocks, ack, inbox):
        """A write's request to disk ``d``: queue every block and spawn one
        ``ack(d, block, request)`` process each; a request that never
        arrives posts ``(inf, block)`` for every block at once."""
        if not (yield from self.reach(d)):
            for b in blocks:
                inbox.put((_INF, b))
            return
        for b in blocks:
            req = self.drives[d].submit_block(tag=(0, int(b)))
            self.env.process(ack(d, b, req), name="write-ack")

    def cancel(self, d: int, at: float, cid):
        """The cancel message sent at ``at``: one hop later, disk ``d``
        drops every request client ``cid`` still has queued."""
        delay = at + self.one_way[d] - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        self.drives[d].cancel_client(cid)


class _Client:
    """One client reading a file: its inbox and its tracker feed.

    Every block outcome lands in the inbox as ``(t, block, stream, pos)``,
    ``t = inf`` for a block that never arrives.  Subclasses provide the
    client's ``process()`` and the ``settle(trial)`` that builds its
    :class:`~repro.accesscore.result.AccessResult`.
    """

    def __init__(self, run: EventRun, scheme, record, plan, cid: int) -> None:
        self.run = run
        self.env = run.env
        self.scheme = scheme
        self.spec = scheme.spec
        self.record = record
        self.plan = plan
        self.cid = cid
        self.tracker = self.spec.completion.tracker(scheme, record, plan)
        self._observe = getattr(self.tracker, "observe", None)
        self.inbox = Store(run.env)
        #: Outcomes expected / taken from the inbox so far.
        self.total = 0
        self.outcomes = 0
        #: ``(block, stream)`` of outcomes that never arrived.
        self.deferred: list[tuple] = []
        self.consumed = 0
        self.order: list[int] = []
        self.last_finite = run.t0
        self.t_fill = _INF
        self.t_done = _INF

    def _take(self, t: float, bid) -> None:
        """Feed one arrival to the tracker — same hook order as the core loop."""
        self.consumed += 1
        if self._observe is not None:
            self._observe(float(t), int(bid))
        else:
            self.tracker.add(int(bid))
        self.order.append(int(bid))

    def consume(self):
        """Drain arrivals into the tracker until it completes."""
        tracker = self.tracker
        while self.outcomes < self.total and not tracker.complete:
            t, bid, stream, _pos = yield self.inbox.get()
            self.outcomes += 1
            if np.isfinite(t):
                self.last_finite = t
                self._take(t, bid)
                if tracker.complete:
                    self.t_fill = float(t)
            else:
                self.deferred.append((int(bid), stream))

    def take_deferred(self) -> None:
        """Consume never-arriving blocks too, as the closed form does.

        A tracker may complete on them, which keeps block accounting
        honest while the latency stays ``inf``.
        """
        for bid, _stream in self.deferred:
            if self.tracker.complete:
                break
            self._take(_INF, bid)

    def drain(self):
        """Take every remaining outcome (served, in flight, cancelled or
        flushed), so the run's records are complete for the settle step."""
        while self.outcomes < self.total:
            yield self.inbox.get()
            self.outcomes += 1

    def deliver(self, t: float, bid, stream=None, pos: int = 0):
        """Carry one block to the client, arriving at ``t``; return ``t``
        (``inf``: it never arrives, and is posted at once)."""
        t = yield from self.run.travel(t)
        if stream is not None:
            stream.arrivals[pos] = t
        self.inbox.put((t, bid, stream, pos))
        return t


class SpeculativeClient(_Client):
    """Single-round speculation on real queues — the DES twin of
    :class:`~repro.core.policy.dispatch.SpeculativeDispatch`.

    Requests every planned block, consumes arrivals until the tracker is
    satisfied, cancels the rest; a fault-stalled read may get a second
    round from ``reaction.retry_targets``.  Settles through
    :func:`~repro.accesscore.timeline.read_epilogue`.
    """

    def __init__(self, run, scheme, record, plan, cid) -> None:
        super().__init__(run, scheme, record, plan, cid)
        #: One record per (disk, round) of what the DES actually did: the
        #: closed form's stream shape, so the shared epilogue (cancel
        #: accounting, tracing, repair annotation) applies verbatim.
        self.streams: list[DiskStream] = []
        self.rounds = 1

    def process(self):
        env, run = self.env, self.run
        yield env.timeout(run.t0)
        self.launch(self.plan.disk_ids, self.plan.placement)
        yield env.process(self.consume(), name=f"consume-c{self.cid}")
        yield from self.retry()
        self.take_deferred()
        self.t_done, t_cancel = self.spec.completion.finish(
            self.scheme, self.tracker, self.t_fill
        )
        if np.isfinite(t_cancel):
            for d in dict.fromkeys(s.disk_id for s in self.streams):
                cancel = run.cancel(d, t_cancel, self.cid)
                env.process(cancel, name=f"cancel-c{self.cid}-d{d}")
        yield from self.drain()

    def launch(self, disks, placement) -> None:
        """Spawn one stream process per disk; expect one outcome per block."""
        for d, blocks in zip(disks, placement):
            d = int(d)
            ids = np.asarray(blocks, dtype=np.int64)
            filer = self.run.cluster.filer_of_disk(d)
            cached = np.asarray(filer.cached_blocks(self.record.name, ids), dtype=bool)
            # Completions fill in as blocks finish (inf: never served);
            # arrivals as they reach the client.
            stream = DiskStream(
                d, ids, cached, np.full(int(np.count_nonzero(~cached)), np.inf),
                np.full(ids.size, np.inf), self.run.one_way[d],
            )
            self.streams.append(stream)
            self.env.process(self.serve(stream), name=f"stream-c{self.cid}-d{d}")
            self.total += ids.size

    def serve(self, stream: DiskStream):
        """One disk's stream: request hop, cache split, queue the rest."""
        run, d = self.run, stream.disk_id
        block_ids = stream.block_ids.tolist()
        if not (yield from run.reach(d)):
            for pos, bid in enumerate(block_ids):
                self.inbox.put((_INF, bid, stream, pos))
            return
        upos = 0
        for pos, bid in enumerate(block_ids):
            if stream.cached[pos]:
                self.env.process(
                    self.deliver(run.response(d, self.env.now), bid, stream, pos),
                    name=f"hit-c{self.cid}",
                )
            else:
                req = run.drives[d].submit_block(tag=(self.cid, bid))
                self.env.process(
                    self.wait(stream, pos, upos, bid, req), name=f"block-c{self.cid}"
                )
                upos += 1

    def wait(self, stream: DiskStream, pos: int, upos: int, bid, req):
        """Wait for one queued block: serve, record, respond, arrive."""
        finished = yield req.done
        if finished is not None and np.isfinite(finished):
            stream.completions[upos] = float(finished)
        yield from self.deliver(
            self.run.response(stream.disk_id, finished), bid, stream, pos
        )

    def retry(self):
        """Mid-read faults stalled the access: the reaction decides which
        disks can serve a second round, and when."""
        injector = self.run.cluster.faults
        if self.tracker.complete or injector is None:
            return
        pending: dict[int, list[int]] = {}
        for bid, stream in self.deferred:
            if not injector.permanently_failed(stream.disk_id):
                pending.setdefault(stream.disk_id, []).append(bid)
        resolved = self.spec.reaction.retry_targets(
            self.scheme, pending, self.last_finite, self.run.t0
        )
        if resolved is None:
            return
        retry_disks, t_retry = resolved
        self.rounds = 2
        if self.scheme.tracer.enabled:
            self.scheme.tracer.count("scheme.respeculations")
        if t_retry > self.env.now:
            yield self.env.timeout(t_retry - self.env.now)
        self.launch(retry_disks, [pending[d] for d in retry_disks])
        yield self.env.process(self.consume(), name=f"consume2-c{self.cid}")

    def settle(self, trial: int) -> AccessResult:
        for s in self.streams:
            # Cancel accounting counts blocks served before the cancel
            # lands, so it needs the completions in time order.
            s.completions.sort()
        return read_epilogue(
            self.scheme, self.spec, self.record, self.plan, trial,
            self.streams, self.tracker, self.t_fill, self.consumed, self.order,
            self.rounds, self.run.t0,
        )


class AdaptiveClient(_Client):
    """Work stealing on real queues — the DES twin of
    :class:`~repro.core.policy.dispatch.AdaptiveDispatch`.

    Round 1 requests each unit from its primary disk; a disk that drains
    makes the client (one hop later) pick the disk with the most queued
    units it also holds and steal the second half, judged by the pace the
    client has observed (§5.3.1).  A block already in service cannot be
    split here, so a single-block steal that finds nothing queued fetches
    one speculative duplicate instead.  Nothing is cancelled at the end:
    outstanding queues drain, as the closed form's event loop runs dry.
    The hand-off rules are :mod:`repro.accesscore.adaptive`'s, shared with
    the closed form.  Settles through
    :func:`~repro.accesscore.timeline.adaptive_epilogue`.
    """

    def __init__(self, run, scheme, record, plan, cid) -> None:
        super().__init__(run, scheme, record, plan, cid)
        self.disk_ids = [int(d) for d in plan.disk_ids]
        n = len(self.disk_ids)
        primaries, self.holder_map = self.spec.placement.adaptive_units(
            scheme.config, record
        )
        self.primaries = [[int(b) for b in ids] for ids in primaries]
        self.total = sum(len(p) for p in self.primaries)
        self.budget = HANDOFF_BUDGET_PER_DISK * n
        self.handoffs = 0
        #: Per disk: blocks served from the platters, filer-cache hits.
        self.fetched, self.hits = [0] * n, [0] * n
        #: unit -> True per disk, insertion-ordered: the steal scan must be
        #: deterministic, so sets are out.
        self.outstanding: list[dict[int, bool]] = [dict() for _ in range(n)]
        self.reassigned: dict[int, int] = {}
        #: Units whose data already reached the client — no longer worth
        #: stealing even while a stale copy sits in some queue.
        self.resolved: set[int] = set()
        #: Units already fetched speculatively a second time; one
        #: duplicate per unit keeps the race bounded.
        self.duplicated: set[int] = set()
        #: Per-disk observed pace: request arrival, last foreground
        #: completion, foreground blocks served.
        self.t_arrived, self.last_comp, self.n_served = [_INF] * n, [0.0] * n, [0] * n

    def process(self):
        env = self.env
        yield env.timeout(self.run.t0)
        for idx, d in enumerate(self.disk_ids):
            env.process(self.round1(idx), name=f"round1-c{self.cid}-d{d}")
        yield from self.consume()
        self.take_deferred()
        self.t_done, _ = self.spec.completion.finish(
            self.scheme, self.tracker, self.t_fill
        )
        yield from self.drain()

    def round1(self, idx: int):
        """Request one disk's primaries; the filer answers its cache hits."""
        run, env, d = self.run, self.env, self.disk_ids[idx]
        ids = self.primaries[idx]
        if not (yield from run.reach(d)):
            for b in ids:
                self.inbox.put((_INF, b, None, 0))
            return
        self.t_arrived[idx] = env.now
        filer = run.cluster.filer_of_disk(d)
        hits, queued = split_round1(filer, self.record.name, ids, self.scheme.config.block_bytes)
        for b in hits:
            env.process(
                self.deliver(run.response(d, env.now), b), name=f"hit-c{self.cid}"
            )
        self.hits[idx] += len(hits)
        for b in queued:
            env.process(self.fetch(int(b), idx), name=f"unit-c{self.cid}")
        if not queued:
            # Nothing to serve: the disk is idle from the request's
            # arrival and immediately looks for work to steal (this is
            # what lets mirror+adaptive's idle half participate).
            env.process(self.steal(idx), name=f"steal-c{self.cid}")

    def fetch(self, unit: int, idx: int):
        """One unit's life: queue at its disk, follow hand-offs, arrive.

        A unit flushed or aborted by a fault fails over to the next
        holder of a replica (each holder tried at most once) — the
        event-engine analogue of stealing from a failed victim.
        """
        visited = {idx}
        while True:
            d = self.disk_ids[idx]
            self.outstanding[idx][unit] = True
            req = self.run.drives[d].submit_block(tag=(self.cid, unit))
            finished = yield req.done
            self.outstanding[idx].pop(unit, None)
            if finished is None:
                # Stolen while queued: re-request from the thief.
                idx = self.reassigned.pop(unit, idx)
            elif not np.isfinite(finished):
                holders = sorted(self.holder_map.get(unit, ()))
                idx = next((h for h in holders if h not in visited), None)
                if idx is None:
                    self.inbox.put((_INF, unit, None, 0))
                    return
            else:
                break
            visited.add(idx)
        self.fetched[idx] += 1
        self.last_comp[idx] = float(finished)
        self.n_served[idx] += 1
        if not self.outstanding[idx]:
            # The disk drained at this completion; the client notices
            # one one-way later (inside steal).
            self.env.process(self.steal(idx), name=f"steal-c{self.cid}")
        t = yield from self.deliver(self.run.response(d, finished), unit)
        if np.isfinite(t):
            self.resolved.add(unit)

    def pace(self, idx: int) -> float:
        """Wall time per block the client has seen from one disk."""
        if not self.n_served[idx] or not np.isfinite(self.t_arrived[idx]):
            return _INF
        return (self.last_comp[idx] - self.t_arrived[idx]) / self.n_served[idx]

    def eligible(self, victim: int, thief: int) -> list[int]:
        """The victim's queued, unresolved units the thief also holds."""
        return [
            u
            for u in self.outstanding[victim]
            if u not in self.resolved and thief in self.holder_map.get(u, ())
        ]

    def steal(self, thief: int):
        """The client reacts to a drained disk: find a victim, steal."""
        run, env = self.run, self.env
        one_way = run.one_way[self.disk_ids[thief]]
        yield env.timeout(one_way)
        if self.handoffs >= self.budget or self.tracker.complete:
            return
        units = [self.eligible(victim, thief) for victim in range(len(self.disk_ids))]
        best, _ = pick_victim([len(u) for u in units], thief)
        if best is None:
            return
        elig = units[best]
        # The client judges both disks by the pace it has observed.
        if len(elig) == 1 and not worth_last_block(self.pace(thief), one_way, self.pace(best)):
            return
        steal = second_half(elig)
        self.handoffs += 1
        victim_d = self.disk_ids[best]
        trace_handoff(
            self.scheme.tracer, env.now, self.handoffs + 1,
            self.disk_ids[thief], victim_d, len(elig),
        )
        # The cancel message crosses to the victim's filer first.
        yield env.timeout(run.one_way[victim_d])
        for u in steal:
            self.reassigned[u] = thief
        removed = run.drives[victim_d].cancel_blocks(self.cid, steal)
        if removed == 0 and len(steal) == 1:
            # The block is already in service: the drive model serves
            # whole blocks, so instead of the closed form's fractional
            # mid-transfer hand-off the thief fetches a speculative
            # duplicate and the first arrival wins (once per unit).
            u = steal[0]
            self.reassigned.pop(u, None)
            if u not in self.duplicated:
                self.duplicated.add(u)
                self.total += 1
                env.process(self.fetch(u, thief), name=f"dup-c{self.cid}")

    def settle(self, trial: int) -> AccessResult:
        block_bytes = self.scheme.config.block_bytes
        return adaptive_epilogue(
            self.scheme, self.spec, self.record, self.plan, trial,
            self.tracker, self.t_fill, self.consumed, self.order,
            self.handoffs + 1, self.run.t0,
            disk_sent=[(f + h) * block_bytes for f, h in zip(self.fetched, self.hits)],
            blocks_sent=sum(self.fetched) + sum(self.hits),
            cache_hits=sum(self.hits),
        )


def event_read(scheme, file_name: str, trial: int = 0, n_clients: int = 1) -> EventAccess:
    """Run one read fully event-driven, through the composition's policies.

    With ``n_clients > 1`` each client issues the same access shape over
    the *same* drives (distinct trackers); contention emerges naturally
    from the shared per-drive queues.  Returns the first client's metrics
    (settled through the shared access-core epilogue) plus every client's
    latency.
    """
    spec = scheme.spec
    record = scheme._record(file_name)
    plan = spec.reaction.plan_read(scheme, record)
    if isinstance(plan, AccessResult):
        # Fate sealed before any disk was touched (e.g. RAID-5's double
        # failure) — identical short-circuit to the closed-form pipeline.
        return EventAccess(plan, {cid: plan.latency_s for cid in range(n_clients)})
    run = EventRun(scheme, plan.disk_ids, trial)
    adaptive = getattr(spec.dispatch, "adaptive", False)
    client_cls = AdaptiveClient if adaptive else SpeculativeClient
    clients = [client_cls(run, scheme, record, plan, cid) for cid in range(n_clients)]
    procs = [run.env.process(c.process(), name=f"client-{c.cid}") for c in clients]
    # Background generators run forever; stop once every client finished.
    run.env.run(until=run.env.all_of(procs))
    return EventAccess(clients[0].settle(trial), {c.cid: c.t_done for c in clients})


def event_write(scheme, file_name: str, trial: int = 0) -> AccessResult:
    """Run one write fully event-driven, through the composition's policies.

    Uniform-family writes (the write policy exposes ``encode_tail_s``)
    push every stored queue and wait for the slowest commit ack; the
    speculative rateless write (the policy exposes ``supply_plan``) feeds
    merged commit acks to the shared
    :class:`~repro.accesscore.trackers.DecodableCommit` gate and settles
    through the policy's ``commit``.
    """
    write = scheme.spec.write
    if hasattr(write, "supply_plan"):
        return _event_speculative_write(scheme, write, file_name, trial)
    return _event_uniform_write(scheme, write, file_name, trial)


def _event_uniform_write(scheme, write, file_name: str, trial: int) -> AccessResult:
    cfg = scheme.config
    disks = scheme.select_disks(trial)
    pspec = scheme.spec.placement.plan(cfg, len(disks), trial)
    run = EventRun(scheme, disks, trial)
    env, inbox = run.env, Store(run.env)
    acks: list[float] = []
    net = 0

    def ack(d, bid, req):
        finished = yield req.done
        inbox.put((run.response(d, finished), bid))

    def client():
        nonlocal net
        yield env.timeout(run.t0)
        total = 0
        for idx, d in enumerate(disks):
            d = int(d)
            blocks = pspec.placement[idx]
            env.process(run.push(d, blocks, ack, inbox), name=f"write-d{d}")
            total += len(blocks)
            nbytes = len(blocks) * cfg.block_bytes
            net += nbytes
            if scheme.tracer.enabled:
                scheme.tracer.account_bytes("network", nbytes)
            filer = run.cluster.filer_of_disk(d)
            filer.link.account(nbytes)
            filer.record_write(file_name, blocks, cfg.block_bytes)
        for _ in range(total):
            t, _bid = yield inbox.get()
            acks.append(t)

    env.run(until=env.process(client(), name="write-client"))
    t_done = max([run.t0] + acks) if acks else run.t0
    return write.settle(scheme, file_name, disks, pspec, t_done, net, run.t0)


def _event_speculative_write(scheme, write, file_name: str, trial: int) -> AccessResult:
    disks, per_disk_cap, target, graph = write.supply_plan(scheme, trial)
    disks_int = [int(d) for d in disks]
    h = len(disks)
    run = EventRun(scheme, disks, trial)
    env, inbox = run.env, Store(run.env)
    completions: dict[int, list[float]] = {d: [] for d in disks_int}
    t_enough, saw_inf = None, False

    def commit_ack(d, bid, req):
        finished = yield req.done
        if finished is not None and np.isfinite(finished):
            completions[d].append(float(finished))
        t = yield from run.travel(run.response(d, finished))
        inbox.put((t, bid))

    def client():
        nonlocal t_enough, saw_inf
        yield env.timeout(run.t0)
        for idx, d in enumerate(disks_int):
            supply = [idx + h * j for j in range(per_disk_cap)]
            env.process(run.push(d, supply, commit_ack, inbox), name=f"supply-d{d}")
        total = h * per_disk_cap
        gate = write.commit_gate(graph, target)
        got = 0
        # Phase 1: feed finite commit acks to the decodability gate.
        while got < total and t_enough is None:
            t, bid = yield inbox.get()
            got += 1
            if np.isfinite(t):
                t_enough = gate.add(float(t), int(bid))
            else:
                saw_inf = True
        if t_enough is not None:
            # Phase 2: cancel every still-queued commit, one hop out.
            for d in disks_int:
                env.process(run.cancel(d, t_enough, 0), name=f"wcancel-d{d}")
        # Phase 3: drain so the committed multiset is fully recorded.
        while got < total:
            yield inbox.get()
            got += 1

    env.run(until=env.process(client(), name="write-client"))
    if t_enough is None or not np.isfinite(t_enough):
        if saw_inf:
            # Fault injection killed disks mid-write: the committed set
            # never reaches a decodable target.
            return failed_write_result(
                scheme, {"target_blocks": target, "write_failed": True}
            )
        raise RuntimeError(
            "speculative write exhausted its rateless supply; "
            "increase WRITE_SUPPLY_FACTOR"
        )
    one_ways = [run.one_way[d] for d in disks_int]
    comp_arrays = [np.sort(np.asarray(completions[d], dtype=np.float64)) for d in disks_int]
    return write.commit(
        scheme, file_name, disks, one_ways, comp_arrays, per_disk_cap,
        float(t_enough), graph, target, trial,
    )
