"""Write policies: uniform commit, encode-overlap commit, speculative rateless.

Uniform writes push the placement policy's balanced layout to every disk
and wait for the slowest commit (§6.3.1).  The grouped-RS variant overlaps
the quadratic-cost group encode with the transfer.  RobuSTore's write is
speculative and rateless: every disk keeps committing coded blocks from
its private id stream until the client has seen enough commits to (a)
reach the target redundancy and (b) guarantee decodability of the
committed set, then cancels (§4.3.2, §5.2.3 improvement 1) — leaving the
*unbalanced* placement the read path replays faithfully.

The speculative write is split the same way reads are: the closed form
here evaluates the ack timeline vectorised; the event-driven engine
(:mod:`repro.accesscore.events`) replays it ack-by-ack.  Both build the
supply from :meth:`SpeculativeRatelessWrite.supply_plan`, stop through the
same :class:`~repro.accesscore.trackers.DecodableCommit` gate, and settle
through :meth:`SpeculativeRatelessWrite.commit`.

Fail-stop detection is shared: a write whose commit acks never all arrive
(:func:`~repro.accesscore.timeline.acks_incomplete`) resolves through
:func:`~repro.accesscore.timeline.failed_write_result`, the single place a
failed write is counted and shaped.
"""

from __future__ import annotations

import numpy as np

from repro.accesscore.result import AccessResult
from repro.accesscore.routing import one_way_times, request_arrivals, response_arrivals
from repro.accesscore.timeline import (
    account_links,
    acks_incomplete,
    disk_by_disk,
    failed_write_result,
    simulate_uniform_write,
)
from repro.accesscore.trackers import DecodableCommit
from repro.coding.peeling import PeelingDecoder
from repro.core.policy.placement import (
    lt_coding,
    pooled_graph,
    rs_decode_bandwidth_bps,
)
from repro.disk.service import served_counts


class UniformWrite:
    """Write the placement's stored queues to every disk; wait for all."""

    def encode_tail_s(self, scheme, pspec) -> float | None:
        """Client-side encode time overlapping the transfer, or ``None``."""
        return None

    def write(self, scheme, spec, file_name, trial) -> AccessResult:
        cfg = scheme.config
        disks = scheme.select_disks(trial)
        pspec = spec.placement.plan(cfg, len(disks), trial)
        t0 = scheme.open_latency()
        t_done, net = simulate_uniform_write(
            scheme.cluster,
            disks,
            pspec.placement,
            cfg.block_bytes,
            t0,
            scheme.service_rng_factory(trial, "write", disks),
            file_name,
        )
        return self.settle(scheme, file_name, disks, pspec, t_done, net, t0)

    def settle(
        self, scheme, file_name, disks, pspec, t_done, net, t0
    ) -> AccessResult:
        """Shared uniform-write epilogue: encode tail, register, result."""
        cfg = scheme.config
        extra = {}
        encode_s = self.encode_tail_s(scheme, pspec)
        if encode_s is not None:
            t_done = max(t_done, t0 + encode_s)
            extra["encode_s"] = encode_s
        scheme._register(
            file_name, disks, pspec.placement, coding=pspec.coding, extra=pspec.extra
        )
        total = sum(len(p) for p in pspec.placement)
        return AccessResult(
            latency_s=t_done + scheme.metadata.latency_s,  # commit to metadata
            data_bytes=cfg.data_bytes,
            network_bytes=net,
            disk_blocks=total,
            blocks_received=total,
            extra=extra,
        )


class EncodeOverlapWrite(UniformWrite):
    """Grouped RS: the per-word encode rides alongside the uniform I/O.

    RS cannot write speculatively (fixed rate, no rateless stream) and the
    parity of each word is only available after the group encodes — only
    the residual beyond the I/O time lands on the latency (encode ~ as
    slow as decode for RS).
    """

    def encode_tail_s(self, scheme, pspec) -> float | None:
        group = pspec.coding["group"]
        return scheme.config.data_bytes / rs_decode_bandwidth_bps(group)


class SpeculativeRatelessWrite:
    """RobuSTore: rateless commit streams cancelled at decodability."""

    #: Rateless supply multiplier: each disk can commit up to this factor
    #: times its fair share N/H before running dry.  Must cover the
    #: fastest-to-average disk speed ratio (~4-6x in the calibrated pool)
    #: so fast disks never idle mid-write (§5.3.2).
    WRITE_SUPPLY_FACTOR = 8

    def supply_plan(self, scheme, trial):
        """The rateless supply: (disks, per-disk cap, target N, graph).

        Disk ``idx`` streams coded ids ``idx, idx+H, idx+2H, ...`` up to
        the cap; the pooled graph covers the whole supply so any committed
        subset can be checked for decodability.  Both engines build their
        write from this one plan (same trial -> same graph, same caps).
        """
        cfg = scheme.config
        disks = scheme.select_disks(trial)
        h = len(disks)
        target = cfg.n_coded
        per_disk_cap = -(-target * self.WRITE_SUPPLY_FACTOR // h) + 8
        graph = pooled_graph(
            cfg.k,
            per_disk_cap * h,
            cfg.lt_c,
            cfg.lt_delta,
            trial,
            checked=False,
        )
        return disks, per_disk_cap, target, graph

    def commit_gate(self, graph, target) -> DecodableCommit:
        """The writer's stop rule, fed commit acks in time order."""
        return DecodableCommit(PeelingDecoder(graph), target)

    def commit(
        self,
        scheme,
        file_name,
        disks,
        one_ways,
        completions,
        per_disk_cap,
        t_enough,
        graph,
        target,
        trial,
    ) -> AccessResult:
        """Cancel at ``t_enough``; register the unbalanced placement.

        ``completions[idx]`` holds disk ``idx``'s commit times in time
        order (the closed form's serve output; the event engine's recorded
        multiset, sorted).  Blocks committed (or in flight) when the
        cancel reaches each disk are durable and define the placement the
        read path replays.
        """
        cfg = scheme.config
        cluster = scheme.cluster
        h = len(disks)
        committed = np.minimum(
            served_counts(completions, t_enough + np.asarray(one_ways)), per_disk_cap
        )
        placement = [
            list(range(idx, idx + h * n, h)) for idx, n in enumerate(committed.tolist())
        ]
        total_committed = int(committed.sum())
        net_bytes = total_committed * cfg.block_bytes
        account_links(cluster, disks, committed * cfg.block_bytes)
        if disk_by_disk(cluster):
            for disk_id, ids in zip(disks, placement):
                cluster.filer_of_disk(int(disk_id)).record_write(file_name, ids, cfg.block_bytes)

        scheme._register(
            file_name,
            disks,
            placement,
            coding=lt_coding(cfg),
            extra={"graph": graph, "speculative": True},
        )
        tracer = scheme.tracer
        if tracer.enabled:
            tracer.count("scheme.writes")
            tracer.account_bytes("network", net_bytes)
            tracer.span(
                f"scheme.write:{scheme.name}",
                "scheme",
                0.0,
                t_enough + scheme.metadata.latency_s,
                track="scheme",
                args={
                    "trial": trial,
                    "committed": total_committed,
                    "overshoot": total_committed - target,
                },
            )
            tracer.instant(
                "scheme.write_cancel", "scheme", t_enough, track="scheme"
            )
        return AccessResult(
            latency_s=t_enough + scheme.metadata.latency_s,
            data_bytes=cfg.data_bytes,
            network_bytes=net_bytes,
            disk_blocks=total_committed,
            blocks_received=total_committed,
            extra={"target_blocks": target, "overshoot": total_committed - target},
        )

    def write(self, scheme, spec, file_name, trial) -> AccessResult:
        cfg = scheme.config
        disks, per_disk_cap, target, graph = self.supply_plan(scheme, trial)
        h = len(disks)
        rng_for = scheme.service_rng_factory(trial, "write", disks)
        t0 = scheme.open_latency()

        # Each disk streams ids d, d+H, d+2H, ...; speculative writing keeps
        # every disk busy until the client cancels.  One array pass serves
        # every disk's supply, as the uniform write does.
        cluster = scheme.cluster
        ids = [int(d) for d in disks]
        one_way = one_way_times(cluster, ids)
        svc = cluster.block_service(
            ids, [rng_for(d) for d in ids], getattr(rng_for, "phase_rng_for", None)
        )
        t_arrive = request_arrivals(cluster, ids, t0, one_way)
        commits = svc.serve(per_disk_cap, cfg.block_bytes, t_arrive)
        completions = list(commits.reshape(h, per_disk_cap))

        # Merge commit acks (commit + one-way back) in time order.
        ack_times = response_arrivals(cluster, ids, commits, [per_disk_cap] * h, one_way)
        ack_ids = (np.arange(h)[:, None] + h * np.arange(per_disk_cap)).ravel()
        order = np.argsort(ack_times, kind="stable")
        ack_times, ack_ids = ack_times[order], ack_ids[order]

        # The writer stops once >= N blocks committed AND the committed set
        # is decodable (the §5.2.3 writer-side guarantee) — the shared
        # DecodableCommit gate, fed the merged ack stream.
        gate = self.commit_gate(graph, target)
        t_enough = None
        for t, bid in zip(ack_times, ack_ids):
            t_enough = gate.add(float(t), int(bid))
            if t_enough is not None:
                break
        # An infinite t_enough means the decodable target was only reached
        # by counting acks that never arrive (flushed by a fail-stop).
        if t_enough is None or not np.isfinite(t_enough):
            if acks_incomplete(ack_times):
                # Fault injection killed disks mid-write: the committed set
                # never reaches a decodable target — the write fails rather
                # than the supply being undersized.
                return failed_write_result(
                    scheme, {"target_blocks": target, "write_failed": True}
                )
            raise RuntimeError(
                "speculative write exhausted its rateless supply; "
                "increase WRITE_SUPPLY_FACTOR"
            )

        return self.commit(
            scheme,
            file_name,
            disks,
            one_way.tolist(),
            completions,
            per_disk_cap,
            t_enough,
            graph,
            target,
            trial,
        )
