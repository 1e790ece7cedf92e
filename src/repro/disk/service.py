"""Vectorised per-access block service model.

The storage-scheme simulations (Chapter 6) need, for each disk, the
completion times of a queue of data-block requests under (a) the disk's
random in-disk layout and (b) an optional competitive background workload.
Simulating every physical request as a discrete event is exact but slow;
this module computes the identical quantities in closed form with numpy:

* A data block of S sectors is accessed as ``ceil(S / bf)`` physical
  requests of ``bf`` sectors; each pays controller overhead; each positions
  (seek + rotational latency) with probability ``1 - p_seq`` (the first
  always positions); the media transfer charges track switches.  All random
  draws are sampled exactly — only their per-block *sum* is formed.

* Background requests arrive every ``interval`` seconds and share the drive
  fairly at request granularity.  Foreground completion times satisfy the
  fixed point  ``C_i = start + S_i + B(J_i) + J_i * pen`` with
  ``J_i = #arrivals before C_i``; the monotone iteration converges in a few
  rounds and is fully vectorised.  ``pen`` is the repositioning penalty the
  foreground stream pays after each interruption (only sequential streams
  lose anything).

A validation test checks this model against the event-driven
:class:`repro.disk.drive.DiskDrive` on matched workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.disk.geometry import SECTOR_BYTES
from repro.disk.mechanics import DiskMechanics
from repro.disk.workload import BACKGROUND_SECTORS, InDiskLayout


@dataclass(frozen=True)
class BackgroundLoad:
    """Competitive background stream parameters for one disk.

    The per-request service is ``overhead + rotational latency + transfer``
    (the stream is locally sequential, so seeks are negligible); with the
    default drive spec the mean is ~5.6 ms, giving the dissertation's ~93 %
    disk utilisation at a 6 ms interval (§6.2.5, Fig 6-5).
    """

    interval_s: float
    sectors: int = BACKGROUND_SECTORS

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval must be positive")

    def sample_services(
        self, n: int, mechanics: DiskMechanics, spt: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n`` background request service times."""
        t = mechanics.spec.controller_overhead_s
        rot = mechanics.sample_rotational_latency(rng, n)
        xfer = float(mechanics.transfer_time(self.sectors, spt))
        return t + rot + xfer

    def mean_service(self, mechanics: DiskMechanics, spt: int) -> float:
        return (
            mechanics.spec.controller_overhead_s
            + mechanics.spec.avg_rotational_latency_s
            + float(mechanics.transfer_time(self.sectors, spt))
        )

    def utilization(self, mechanics: DiskMechanics, spt: int) -> float:
        """Fraction of disk time the stream consumes when served alone."""
        return min(1.0, self.mean_service(mechanics, spt) / self.interval_s)


#: Positioning events the sampler gathers before it sums them.  Summing
#: in chunks, and dropping each chunk's draws, keeps the pass's buffers the
#: size of one disk's: freeing a buffer larger than glibc's dynamic mmap
#: threshold raises the threshold, and the larger temporaries that then
#: land in the heap fragment it for good, so an access-wide buffer would
#: keep more memory than the per-disk loops did.
CHUNK_EVENTS = 1 << 14


def _positioning_sums(runs: list, out, n_total: int, table: np.ndarray, period: float):
    """Sum each block's positioning draws for a chunk of disks into ``out``
    (a length-``n_total`` array, made on first use; ``None`` before).

    ``runs`` holds, per disk, its first block's index, its events per block
    and its seek distances and unit rotations, in draw order.
    """
    start, end = runs[0][0], runs[-1][0] + runs[-1][1].size
    if len(runs) == 1:
        _, n_pos, seeks, rot = runs[0]
        owner = np.arange(n_pos.size)
    else:
        firsts, n_pos, seeks, rot = zip(*runs)
        sizes = [e.size for e in n_pos]
        n_pos, seeks, rot = np.concatenate(n_pos), np.concatenate(seeks), np.concatenate(rot)
        # A disk's blocks are contiguous; the fully sequential disks between
        # them shift the others' block indices.
        owner = np.arange(n_pos.size)
        owner += np.repeat(np.array(firsts) - start - (np.cumsum(sizes) - sizes), sizes)
    draws = table[seeks]
    rot *= period
    draws += rot
    # bincount accumulates each block's weights sequentially, in draw
    # order (a block with no positioning event sums to 0.0).
    sums = np.bincount(np.repeat(owner, n_pos), weights=draws, minlength=end - start)
    if out is None:
        if end - start == n_total:
            return sums
        out = np.zeros(n_total)
    out[start:end] = sums
    return out


class BlockService:
    """Block-level service model of an access's disks.

    One model covers the disks one access reaches.  Each disk has its own
    random in-disk layout, zone and random stream, and may carry a
    background load, a static failure or a fault timeline; the per-disk
    attributes are lists aligned with the disks.  The constructor builds
    the one-disk model, :meth:`over` the model of a list of disks, and
    :meth:`repro.cluster.server.Cluster.block_service` either from the
    cluster's per-trial disk state.

    Parameters
    ----------
    mechanics:
        Drive mechanics (shared across disks).
    layout:
        The disk's random in-disk layout (blocking factor, p_seq).
    spt:
        Sectors-per-track of the zone holding the data (fixes media rate).
    rng:
        The disk's random stream.  Disks must not share one: each disk's
        draws stay in their one-disk order, but draws of different disks
        interleave differently.
    background:
        Optional competitive load.
    failed:
        A statically failed disk never responds.
    timeline:
        Optional :class:`repro.faults.timeline.DiskTimeline`; when set,
        completion times are warped through the disk's fault profile
        (slowdowns stretch them, outages push them past the recovery, a
        permanent fail-stop maps unfinished work to ``inf``).  ``None``
        keeps the arithmetic bit-identical to an unfaulted run.
    phase_rng:
        Dedicated stream for the background stream's initial phase draw
        (the ``"bgphase"`` :data:`repro.sim.rng.STREAMS` entry).  ``None``
        falls back to drawing the phase from ``rng`` — the historical
        behaviour, which silently interleaved one extra draw into the
        service stream and was invisible to the SIM011 stream discipline.
    """

    def __init__(
        self,
        mechanics: DiskMechanics,
        layout: InDiskLayout,
        spt: int,
        rng: np.random.Generator,
        background: BackgroundLoad | None = None,
        failed: bool = False,
        timeline=None,
        phase_rng: np.random.Generator | None = None,
    ) -> None:
        self._bind(
            mechanics, [layout], [int(spt)], [rng], [background], [failed],
            [timeline], [phase_rng],
        )

    @classmethod
    def over(
        cls, mechanics: DiskMechanics, layouts, spts, rngs, backgrounds, failed,
        timelines, phase_rngs,
    ) -> "BlockService":
        """The model of several disks: one list per parameter, aligned."""
        svc = cls.__new__(cls)
        svc._bind(
            mechanics, layouts, spts, rngs, backgrounds, failed, timelines, phase_rngs
        )
        return svc

    def _bind(
        self, mechanics, layouts, spts, rngs, backgrounds, failed, timelines, phase_rngs
    ) -> None:
        self.mechanics = mechanics
        self.layouts = layouts
        self.spts = spts
        self.rngs = rngs
        self.backgrounds = backgrounds
        self.failed = failed
        self.timelines = timelines
        self.phase_rngs = phase_rngs
        #: Disks whose completions need their own step: a static failure,
        #: a background fixed point or a fault warp.
        self._own_steps = [
            i
            for i, down in enumerate(failed)
            if down or backgrounds[i] is not None or timelines[i] is not None
        ]
        # Per-disk block costs and background interleave parameters: pure
        # functions of layout/zone/spec, cached so the adaptive engine's
        # repeated per-batch calls skip the recomputation.
        self._costs_by_size: dict[int, tuple[list, list, list]] = {}
        self._bg_plans: dict[int, tuple[float, float, float]] = {}

    # -- nominal block service ------------------------------------------------
    def block_service_times(self, n_blocks, block_bytes: int) -> np.ndarray:
        """Sample the stand-alone service times of every disk's blocks.

        ``n_blocks`` is each disk's block count, or one count for every
        disk.  Returns one flat array in disk order: the first disk's
        blocks, then the next disk's.

        Each of a block's requests positions (seek + rotational latency)
        with probability ``1 - p_seq``; a fully sequential stream flows
        across block boundaries too, so only a disk's very first request is
        forced to position.  Each block then pays its requests' controller
        overhead and the media transfer.

        Each disk draws on its own stream in one order: its per-block
        binomials, then all its seeks, then all its rotations.  A fully
        sequential disk draws no binomial (``binomial(n, 0.0)`` consumes no
        bits and returns zeros), so its block 0's forced positioning is its
        only draw.  The rest runs over many disks at once, the positioning
        sums in chunks of :data:`CHUNK_EVENTS` draws.
        """
        rngs = self.rngs
        counts = [n_blocks] * len(rngs) if isinstance(n_blocks, (int, np.integer)) else n_blocks
        mech = self.mechanics
        table = mech.seek_table
        hi = table.size
        period = mech.spec.rotation_period_s
        costs, overheads, xfers = self._block_costs(block_bytes)
        n_total = sum(counts)
        out = None
        lone = []  # fully sequential disks: (block 0's index, its service)
        runs, pending = [], 0  # the other disks: (first block, events, seeks, rotations)
        at = 0
        for rng, (n_req, p_pos, overhead, xfer), n in zip(rngs, costs, counts):
            if not n:
                continue
            if p_pos == 0.0:
                seek = table[rng.integers(1, hi)]
                lone.append((at, seek + rng.random() * period + overhead + xfer))
            else:
                events = rng.binomial(n_req, p_pos, size=n)
                events[0] += 1
                total = sum(events.tolist())  # cheaper than .sum() on a few blocks
                runs.append((at, events, rng.integers(1, hi, size=total), rng.random(total)))
                pending += total
                if pending >= CHUNK_EVENTS:
                    out = _positioning_sums(runs, out, n_total, table, period)
                    runs, pending = [], 0
            at += n
        if runs:
            out = _positioning_sums(runs, out, n_total, table, period)
        one = len(rngs) == 1
        if out is not None:
            out += overheads[0] if one else np.repeat(overheads, counts)
            out += xfers[0] if one else np.repeat(xfers, counts)
        elif one:
            # Every block but the first costs 0.0 + overhead + transfer.
            out = np.full(at, overheads[0] + xfers[0])
        else:
            out = np.repeat(overheads, counts) + np.repeat(xfers, counts)
        # A fully sequential disk positions once, before its first block.
        for a, service in lone:
            out[a] = service
        return out

    def _block_costs(self, block_bytes: int) -> tuple[list, list, list]:
        """Each disk's ``(requests, positioning probability, overhead,
        transfer)`` for one block size, and the overheads and transfers as
        lists; cached, since the adaptive read and the event engine sample
        a one-disk model over and over."""
        costs = self._costs_by_size.get(block_bytes)
        if costs is None:
            sectors = max(1, block_bytes // SECTOR_BYTES)
            per_disk = []
            for layout, spt in zip(self.layouts, self.spts):
                n_req = -(-sectors // layout.blocking_factor)
                per_disk.append((
                    n_req,
                    1.0 - layout.p_sequential,
                    n_req * self.mechanics.spec.controller_overhead_s,
                    float(self.mechanics.transfer_time(sectors, spt)),
                ))
            costs = self._costs_by_size[block_bytes] = (
                per_disk, [c[2] for c in per_disk], [c[3] for c in per_disk]
            )
        return costs

    def standalone_bandwidth(self, block_bytes: int = 1 << 20, n_blocks: int = 256) -> float:
        """Monte-Carlo mean bandwidth (bytes/s) of a one-disk model
        without background load."""
        t = self.block_service_times(n_blocks, block_bytes)
        return n_blocks * block_bytes / float(t.sum())

    # -- queue completion times --------------------------------------------------
    #: Minimum service share the drive's scheduler guarantees the
    #: foreground stream: an over-saturating background queue backs up
    #: instead of starving other streams.  Calibrated so a 6 ms-interval
    #: background (~93 % utilisation plus repositioning loss) leaves a fast
    #: sequential foreground ~2 MB/s, matching Fig 6-5.
    MIN_FOREGROUND_SHARE = 0.05

    def completions(self, services: np.ndarray, start, counts=None) -> np.ndarray:
        """Completion time of each queued block, background interleaved.

        ``services`` is the nominal per-block service vector in the flat
        disk order :meth:`block_service_times` returns, ``counts`` each
        disk's block count (or one count for every disk) and ``start`` each
        disk's start time.  A one-disk model takes ``counts=None`` and a
        scalar ``start``.  Each
        disk serves its blocks back-to-back from its start, interleaved
        FCFS with its background stream: each background request due
        before a foreground block finishes delays it by its own service
        plus the foreground stream's repositioning.  When the background
        alone would exceed ``1 - MIN_FOREGROUND_SHARE`` of the drive, its
        surplus arrivals queue (the drive admits them at the saturation
        rate), so the foreground dilates but never starves (§6.3.2).
        """
        services = np.asarray(services, dtype=np.float64)
        if counts is None:
            s_cum = services.cumsum()
            s_cum += start
            if self._own_steps:
                s_cum = self._settle(0, s_cum, start)
            return s_cum
        # Every disk's running sum at once: a zero-padded (disk x block)
        # grid accumulates each row sequentially, as the one-disk cumsum
        # does, and trailing zeros never reach a row's real prefix.
        counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), (len(self.rngs),))
        width = int(counts.max()) if counts.size else 0
        real = np.arange(width) < counts[:, None]
        grid = np.zeros(real.shape)
        grid[real] = services
        grid.cumsum(axis=1, out=grid)
        starts = np.asarray(start, dtype=np.float64)
        grid += starts[:, None]
        out = grid[real]
        if self._own_steps:
            ends = np.cumsum(counts).tolist()
            for i in self._own_steps:
                n = int(counts[i])
                out[ends[i] - n : ends[i]] = self._settle(i, grid[i, :n], float(starts[i]))
        return out

    def _settle(self, i: int, s_cum: np.ndarray, start: float) -> np.ndarray:
        """Disk ``i``'s own step: failure, background fixed point, warp."""
        if self.failed[i]:
            # A failed disk never responds — its blocks are erasures.
            return np.full(s_cum.size, np.inf)
        bg = self.backgrounds[i]
        if bg is not None and s_cum.size:
            s_cum = self._interleave(i, bg, s_cum, start)
        timeline = self.timelines[i]
        return s_cum if timeline is None else timeline.warp(s_cum, start)

    def _interleave(
        self, i: int, bg: BackgroundLoad, s_cum: np.ndarray, start: float
    ) -> np.ndarray:
        """The background fixed point of disk ``i``'s queue."""
        mech, spt, rng = self.mechanics, self.spts[i], self.rngs[i]
        # Repositioning penalty per interruption: only a sequential
        # foreground stream loses positioning work to interleaving.  The
        # (pen, per_bg, interval) triple is deterministic per disk.
        plan = self._bg_plans.get(i)
        if plan is None:
            pen = self.layouts[i].p_sequential * mech.mean_positioning_time()
            per_bg = bg.mean_service(mech, spt) + pen
            # Effective admission interval: the drive serves background no
            # faster than the fairness floor allows.
            interval = max(bg.interval_s, per_bg / (1.0 - self.MIN_FOREGROUND_SHARE))
            plan = self._bg_plans[i] = (pen, per_bg, interval)
        pen, per_bg, interval = plan
        eff_util = per_bg / interval
        phase_rng = self.phase_rngs[i]
        phase_rng = phase_rng if phase_rng is not None else rng
        phase = start + phase_rng.random() * interval

        # Draw enough background services up front; extend if needed.
        horizon = float(s_cum[-1] - start) / max(1e-3, 1.0 - eff_util)
        est = int((horizon / interval) * 1.5 + 16)
        bg_draws = bg.sample_services(est, mech, spt, rng)
        b_cum = np.concatenate([[0.0], np.cumsum(bg_draws)])

        c = s_cum.copy()
        for _ in range(500):
            j = np.floor((c - phase) / interval).astype(np.int64) + 1
            np.maximum(j, 0, out=j)
            if j[-1] >= b_cum.size - 1:
                more = bg.sample_services(int(j[-1] - b_cum.size + 2 + 64), mech, spt, rng)
                b_cum = np.concatenate([b_cum, b_cum[-1] + np.cumsum(more)])
            c_new = s_cum + b_cum[j] + j * pen
            if settled(c_new, c):
                c = c_new
                break
            c = c_new
        return c

    def serve(self, n_blocks, block_bytes: int, start) -> np.ndarray:
        """Sample services and return queue completion times in one call:
        a one-disk model takes a block count and a start time, a model of
        several disks per-disk counts (or one for all) and starts."""
        services = self.block_service_times(n_blocks, block_bytes)
        return self.completions(services, start, None if np.ndim(start) == 0 else n_blocks)


def settled(new: np.ndarray, old: np.ndarray) -> bool:
    """``np.allclose(new, old, rtol=0, atol=1e-12)`` without its set-up.

    Elementwise ``|new - old| <= 1e-12`` or ``new == old``, which is what
    ``np.isclose`` computes at ``rtol=0``: equal infinities count as close
    and NaN never does.  Unlike ``allclose`` it does not silence numpy's
    warning for ``inf - inf``; the fixed point's times are finite.
    """
    return bool(((np.abs(new - old) <= 1e-12) | (new == old)).all())


def served_before(completions: np.ndarray, cancel_time: float) -> int:
    """How many queued blocks the disk transferred by ``cancel_time``.

    The block in service when the cancel arrives is counted too — its bytes
    are already in flight (§4.1.2).  Blocks that will never complete
    (failed disk: infinite completion time) are never counted.
    """
    completions = np.asarray(completions, dtype=np.float64)
    return int(served_counts([completions], [cancel_time])[0])


def served_counts(completions: list[np.ndarray], cancel_times) -> np.ndarray:
    """:func:`served_before` of several queues, in one array pass.

    ``completions[i]`` holds queue ``i``'s completion times and
    ``cancel_times[i]`` the instant its cancel lands.  Every producer
    leaves a queue's finite completions in time order, ahead of its
    infinite ones, so the blocks done by the cancel are the finite ones at
    or before it; one more is in flight unless none is left.
    """
    sizes = [c.size for c in completions]
    flat = np.concatenate(completions) if completions else np.empty(0)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    finite = np.isfinite(flat)
    done = finite & (flat <= np.repeat(cancel_times, sizes))
    n_done = np.bincount(owner, weights=done, minlength=len(sizes))
    n_finite = np.bincount(owner, weights=finite, minlength=len(sizes))
    return np.minimum(n_done + 1, n_finite).astype(np.int64)
