"""Reference closed form: the per-disk loops before the one array pass.

This module keeps, as they were, the closed-form access paths that ran one
disk at a time before :class:`repro.disk.service.BlockService` became one
model over an access's disks:

* :class:`ReferenceService` is the one-disk service model: per-block
  binomials, then the seeks (the ``sqrt`` seek curve evaluated per draw),
  then the rotations, summed per block with ``bincount``, and a queue's
  completions as one ``cumsum`` with the background fixed point and the
  fault warp;
* :func:`reference_block_service` builds it from a cluster's disk state,
  as ``Cluster.block_service`` did for one disk;
* :func:`reference_serve_read_queues`, :func:`reference_finalize_read`
  and :func:`reference_simulate_uniform_write` run a read's queues, its
  cancel accounting and a uniform write disk by disk;
* :class:`ReferenceRatelessWrite` is RobuSTore's speculative write with
  the per-disk supply loop and the per-disk commit loop.

It exists solely as the oracle for ``tests/test_pass_oracle.py``: the
array pass and these loops run the same seeded accesses and must agree on
every value, counter and generator state.  Do not use this in production
paths.
"""

from __future__ import annotations

import math

import numpy as np

from repro.accesscore.routing import request_arrival_time, response_arrival_times
from repro.accesscore.timeline import DiskStream, acks_incomplete, failed_write_result
from repro.accesscore.tracing import _sample_indices
from repro.core.policy.write import SpeculativeRatelessWrite
from repro.disk.geometry import SECTOR_BYTES
from repro.disk.service import settled

__all__ = [
    "ReferenceRatelessWrite",
    "ReferenceService",
    "reference_block_service",
    "reference_finalize_read",
    "reference_serve_read_queues",
    "reference_served_before",
    "reference_simulate_uniform_write",
]


def _sample_local_seek(mech, rng, n):
    s = mech.spec
    if n == 1:
        d = float(rng.integers(1, s.locality_span_cylinders + 1))
        return np.array([s.seek_base_s + s.seek_sqrt_s * math.sqrt(d) + s.seek_linear_s * d])
    d = rng.integers(1, s.locality_span_cylinders + 1, size=n)
    t = np.sqrt(d)
    t *= s.seek_sqrt_s
    t += s.seek_base_s
    t += s.seek_linear_s * d
    return t


def _sample_rotational_latency(mech, rng, n):
    if n == 1:
        return np.array([rng.random() * mech.spec.rotation_period_s])
    t = rng.random(n)
    t *= mech.spec.rotation_period_s
    return t


class ReferenceService:
    """The one-disk block service model, one disk per instance."""

    MIN_FOREGROUND_SHARE = 0.05

    def __init__(
        self, mechanics, layout, spt, rng, background=None, failed=False,
        timeline=None, phase_rng=None,
    ) -> None:
        self.mechanics = mechanics
        self.layout = layout
        self.spt = int(spt)
        self.rng = rng
        self.background = background
        self.failed = failed
        self.timeline = timeline
        self.phase_rng = phase_rng

    def block_service_times(self, n_blocks: int, block_bytes: int) -> np.ndarray:
        if n_blocks == 0:
            return np.empty(0, dtype=np.float64)
        mech = self.mechanics
        spec = mech.spec
        sectors = max(1, block_bytes // SECTOR_BYTES)
        n_req = -(-sectors // self.layout.blocking_factor)
        xfer = float(mech.transfer_time(sectors, self.spt))
        overhead = n_req * spec.controller_overhead_s
        p_pos = 1.0 - self.layout.p_sequential
        if p_pos == 0.0:
            out = np.full(n_blocks, overhead + xfer)
            pos = (
                _sample_local_seek(mech, self.rng, 1)[0]
                + _sample_rotational_latency(mech, self.rng, 1)[0]
            )
            out[0] = pos + overhead + xfer
            return out
        n_pos = self.rng.binomial(n_req, p_pos, size=n_blocks)
        n_pos[0] += 1
        total = int(n_pos.sum())
        draws = _sample_local_seek(mech, self.rng, total)
        draws += _sample_rotational_latency(mech, self.rng, total)
        owner = np.repeat(np.arange(n_blocks), n_pos)
        total_pos = np.bincount(owner, weights=draws, minlength=n_blocks)
        total_pos += overhead
        total_pos += xfer
        return total_pos

    def completions(self, services: np.ndarray, start: float) -> np.ndarray:
        services = np.asarray(services, dtype=np.float64)
        if self.failed:
            return np.full(services.size, np.inf)
        s_cum = services.cumsum()
        s_cum += start
        bg = self.background
        if bg is None or services.size == 0:
            return self._warp(s_cum, start)
        pen = self.layout.p_sequential * self.mechanics.mean_positioning_time()
        per_bg = bg.mean_service(self.mechanics, self.spt) + pen
        interval = max(bg.interval_s, per_bg / (1.0 - self.MIN_FOREGROUND_SHARE))
        eff_util = per_bg / interval
        phase_rng = self.phase_rng if self.phase_rng is not None else self.rng
        phase = start + phase_rng.random() * interval

        horizon = float(s_cum[-1] - start) / max(1e-3, 1.0 - eff_util)
        est = int((horizon / interval) * 1.5 + 16)
        bg_draws = bg.sample_services(est, self.mechanics, self.spt, self.rng)
        b_cum = np.concatenate([[0.0], np.cumsum(bg_draws)])

        c = s_cum.copy()
        for _ in range(500):
            j = np.floor((c - phase) / interval).astype(np.int64) + 1
            np.maximum(j, 0, out=j)
            if j[-1] >= b_cum.size - 1:
                more = bg.sample_services(
                    int(j[-1] - b_cum.size + 2 + 64), self.mechanics, self.spt, self.rng
                )
                b_cum = np.concatenate([b_cum, b_cum[-1] + np.cumsum(more)])
            c_new = s_cum + b_cum[j] + j * pen
            if settled(c_new, c):
                c = c_new
                break
            c = c_new
        return self._warp(c, start)

    def _warp(self, completions: np.ndarray, start: float) -> np.ndarray:
        if self.timeline is None:
            return completions
        return self.timeline.warp(completions, start)

    def serve(self, n_blocks: int, block_bytes: int, start: float) -> np.ndarray:
        return self.completions(self.block_service_times(n_blocks, block_bytes), start)


def reference_served_before(completions: np.ndarray, cancel_time: float) -> int:
    completions = np.asarray(completions)
    finite = completions[np.isfinite(completions)]
    done = int(np.searchsorted(finite, cancel_time, side="right"))
    if done < finite.size:
        done += 1
    return done


def reference_block_service(cluster, disk_id: int, rng, phase_rng_for=None) -> ReferenceService:
    st = cluster.disk_state(disk_id)
    phase_rng = None
    if phase_rng_for is not None and cluster.has_background(disk_id):
        phase_rng = phase_rng_for(disk_id)
    return ReferenceService(
        cluster.mechanics,
        st.layout,
        st.spt,
        rng,
        st.background,
        failed=st.failed,
        timeline=cluster.disk_timeline(disk_id),
        phase_rng=phase_rng,
    )


def reference_serve_read_queues(
    cluster, disk_ids, placement, block_bytes, t_send, rng_for, file_name=""
) -> list[DiskStream]:
    streams: list[DiskStream] = []
    tracer = cluster.tracer
    phase_rng_for = getattr(rng_for, "phase_rng_for", None)
    for idx, disk_id in enumerate(disk_ids):
        disk_id = int(disk_id)
        filer = cluster.filer_of_disk(disk_id)
        blocks = np.asarray(placement[idx], dtype=np.int64)
        one_way = filer.link.one_way_s
        t_arrive = request_arrival_time(cluster, disk_id, t_send, one_way)
        cached = filer.cached_blocks(file_name, blocks)
        n_cached = int(np.count_nonzero(cached))
        n_uncached = blocks.size - n_cached
        svc = reference_block_service(
            cluster, disk_id, rng_for(disk_id), phase_rng_for=phase_rng_for
        )
        completions = svc.serve(n_uncached, block_bytes, t_arrive)
        if n_cached == 0:
            arrivals = np.asarray(
                response_arrival_times(cluster, disk_id, completions, one_way),
                dtype=np.float64,
            )
        else:
            arrivals = np.empty(blocks.size, dtype=np.float64)
            arrivals[cached] = response_arrival_times(cluster, disk_id, t_arrive, one_way)
            arrivals[~cached] = response_arrival_times(cluster, disk_id, completions, one_way)
        if tracer.enabled:
            tracer.span(
                "filer.request",
                "filer",
                t_send,
                t_arrive,
                track="filer",
                args={"disk": disk_id, "blocks": int(blocks.size)},
            )
            last = float(completions[-1]) if completions.size else t_arrive
            if np.isfinite(last):
                tracer.span(
                    "drive.queue",
                    "drive",
                    t_arrive,
                    last,
                    track="drive",
                    args={
                        "disk": disk_id,
                        "queued": n_uncached,
                        "cached": int(blocks.size) - n_uncached,
                    },
                )
                for i in _sample_indices(completions.size):
                    tracer.counter(
                        "drive.queue_depth",
                        float(completions[i]),
                        n_uncached - (i + 1),
                        track="drive",
                    )
                if tracer.detail and completions.size:
                    starts = np.concatenate([[t_arrive], completions[:-1]])
                    for bid, t0b, t1b in zip(blocks[~cached], starts, completions):
                        tracer.span(
                            "drive.block",
                            "drive",
                            float(t0b),
                            float(t1b),
                            track=f"disk{disk_id}",
                            args={"block": int(bid)},
                        )
        streams.append(DiskStream(disk_id, blocks, cached, completions, arrivals, one_way))
    return streams


def reference_finalize_read(streams, cluster, t_done, block_bytes, file_name=""):
    network_bytes = 0
    disk_blocks = 0
    cache_hits = 0
    tracer = cluster.tracer
    for s in streams:
        t_cancel = t_done + s.one_way_s
        served = reference_served_before(s.completions, t_cancel)
        n_cached = int(np.count_nonzero(s.cached))
        cache_hits += n_cached
        disk_blocks += served
        sent = served + n_cached
        nbytes = sent * block_bytes
        network_bytes += nbytes
        if tracer.enabled:
            cancelled = int(s.block_ids.size) - sent
            tracer.account_bytes("network", nbytes)
            tracer.instant(
                "scheme.cancel",
                "scheme",
                t_cancel,
                track="scheme",
                args={"disk": s.disk_id, "sent": sent, "cancelled": cancelled},
            )
            if cancelled > 0:
                tracer.count("scheme.blocks_cancelled_in_queue", cancelled)
        filer = cluster.filer_of_disk(s.disk_id)
        filer.link.account(nbytes)
        uncached_ids = s.block_ids[~s.cached][:served]
        filer.record_read(file_name, uncached_ids, block_bytes)
        cached_ids = s.block_ids[s.cached]
        filer.record_read(file_name, cached_ids, block_bytes)
    return network_bytes, disk_blocks, cache_hits


def reference_simulate_uniform_write(
    cluster, disk_ids, placement, block_bytes, t_send, rng_for, file_name=""
):
    t_done = t_send
    network_bytes = 0
    tracer = cluster.tracer
    phase_rng_for = getattr(rng_for, "phase_rng_for", None)
    for idx, disk_id in enumerate(disk_ids):
        disk_id = int(disk_id)
        filer = cluster.filer_of_disk(disk_id)
        blocks = np.asarray(placement[idx], dtype=np.int64)
        one_way = filer.link.one_way_s
        svc = reference_block_service(
            cluster, disk_id, rng_for(disk_id), phase_rng_for=phase_rng_for
        )
        t_arrive = request_arrival_time(cluster, disk_id, t_send, one_way)
        completions = svc.serve(blocks.size, block_bytes, t_arrive)
        if blocks.size:
            ack = response_arrival_times(cluster, disk_id, float(completions[-1]), one_way)
            t_done = max(t_done, float(ack))
        nbytes = blocks.size * block_bytes
        network_bytes += nbytes
        if tracer.enabled:
            tracer.account_bytes("network", nbytes)
            if blocks.size and np.isfinite(completions[-1]):
                tracer.span(
                    "drive.write_queue",
                    "drive",
                    t_arrive,
                    float(completions[-1]),
                    track="drive",
                    args={"disk": disk_id, "blocks": int(blocks.size)},
                )
        filer.link.account(nbytes)
        filer.record_write(file_name, blocks, block_bytes)
    return t_done, network_bytes


class ReferenceRatelessWrite(SpeculativeRatelessWrite):
    """RobuSTore's write with the per-disk supply and commit loops."""

    def commit(
        self, scheme, file_name, disks, one_ways, completions, per_disk_cap,
        t_enough, graph, target, trial,
    ):
        cfg = scheme.config
        h = len(disks)
        placement: list[list[int]] = []
        net_bytes = 0
        total_committed = 0
        for idx, disk_id in enumerate(disks):
            t_cancel = t_enough + one_ways[idx]
            committed = reference_served_before(completions[idx], t_cancel)
            committed = min(committed, per_disk_cap)
            ids = (idx + h * np.arange(committed)).tolist()
            placement.append(ids)
            total_committed += committed
            nbytes = committed * cfg.block_bytes
            net_bytes += nbytes
            filer = scheme.cluster.filer_of_disk(int(disk_id))
            filer.link.account(nbytes)
            filer.record_write(file_name, ids, cfg.block_bytes)
        return self._settle(
            scheme, file_name, disks, placement, net_bytes, total_committed,
            t_enough, graph, target, trial,
        )

    def _settle(
        self, scheme, file_name, disks, placement, net_bytes, total_committed,
        t_enough, graph, target, trial,
    ):
        """The commit's shared tail: register, trace, result."""
        from repro.accesscore.result import AccessResult
        from repro.core.policy.placement import lt_coding

        cfg = scheme.config
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
            tracer.instant("scheme.write_cancel", "scheme", t_enough, track="scheme")
        return AccessResult(
            latency_s=t_enough + scheme.metadata.latency_s,
            data_bytes=cfg.data_bytes,
            network_bytes=net_bytes,
            disk_blocks=total_committed,
            blocks_received=total_committed,
            extra={"target_blocks": target, "overshoot": total_committed - target},
        )

    def write(self, scheme, spec, file_name, trial):
        cfg = scheme.config
        disks, per_disk_cap, target, graph = self.supply_plan(scheme, trial)
        h = len(disks)
        rng_for = scheme.service_rng_factory(trial, "write", disks)
        t0 = scheme.open_latency()

        completions: list[np.ndarray] = []
        one_ways: list[float] = []
        acks: list[np.ndarray] = []
        phase_rng_for = getattr(rng_for, "phase_rng_for", None)
        for idx, disk_id in enumerate(disks):
            disk_id = int(disk_id)
            filer = scheme.cluster.filer_of_disk(disk_id)
            one_way = filer.link.one_way_s
            svc = reference_block_service(
                scheme.cluster, disk_id, rng_for(disk_id), phase_rng_for=phase_rng_for
            )
            t_arrive = request_arrival_time(scheme.cluster, disk_id, t0, one_way)
            c = svc.serve(per_disk_cap, cfg.block_bytes, t_arrive)
            completions.append(c)
            one_ways.append(one_way)
            acks.append(np.asarray(response_arrival_times(scheme.cluster, disk_id, c, one_way)))

        ack_times = np.concatenate(acks)
        ack_ids = np.concatenate(
            [idx + h * np.arange(c.size) for idx, c in enumerate(completions)]
        )
        order = np.argsort(ack_times, kind="stable")
        ack_times, ack_ids = ack_times[order], ack_ids[order]

        gate = self.commit_gate(graph, target)
        t_enough = None
        for t, bid in zip(ack_times, ack_ids):
            t_enough = gate.add(float(t), int(bid))
            if t_enough is not None:
                break
        if t_enough is None or not np.isfinite(t_enough):
            if acks_incomplete(ack_times):
                return failed_write_result(
                    scheme, {"target_blocks": target, "write_failed": True}
                )
            raise RuntimeError(
                "speculative write exhausted its rateless supply; "
                "increase WRITE_SUPPLY_FACTOR"
            )
        return self.commit(
            scheme, file_name, disks, one_ways, completions, per_disk_cap,
            t_enough, graph, target, trial,
        )
