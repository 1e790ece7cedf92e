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


class BlockService:
    """Block-level service model of one disk for one access.

    Parameters
    ----------
    mechanics:
        Drive mechanics (shared across disks).
    layout:
        This disk's random in-disk layout (blocking factor, p_seq).
    spt:
        Sectors-per-track of the zone holding the data (fixes media rate).
    rng:
        This disk's random stream.
    background:
        Optional competitive load.
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
        self.mechanics = mechanics
        self.layout = layout
        self.spt = int(spt)
        self.rng = rng
        self.background = background
        self.failed = failed
        self.timeline = timeline
        self.phase_rng = phase_rng
        # Deterministic per-block-size constants (sectors, requests,
        # transfer time) and the background interleave parameters: both
        # are pure functions of layout/zone/spec, cached so the adaptive
        # engine's repeated per-batch calls skip the recomputation.
        self._block_params_cache: dict[int, tuple[int, int, float]] = {}
        self._bg_plan: tuple[float, float, float] | None = None

    # -- nominal block service ------------------------------------------------
    def block_service_times(self, n_blocks: int, block_bytes: int) -> np.ndarray:
        """Sample the stand-alone service time of ``n_blocks`` data blocks."""
        if n_blocks == 0:
            return np.empty(0, dtype=np.float64)
        mech = self.mechanics
        spec = mech.spec
        sectors, n_req, xfer = self._block_params(block_bytes)

        # Positioning events per block: each request positions with
        # probability (1 - p_seq); a fully sequential stream flows across
        # block boundaries too, so only the access's very first request is
        # forced to position.  Each block then pays its requests'
        # controller overhead and the media transfer.
        overhead = n_req * spec.controller_overhead_s
        p_pos = 1.0 - self.layout.p_sequential
        if p_pos == 0.0:
            # binomial(n, 0.0) consumes no bits and returns zeros, so block
            # 0's forced positioning is the only draw.  The general path's
            # sums reduce to these: bincount adds a lone weight to 0.0
            # exactly, and 0.0 + overhead is overhead.
            out = np.full(n_blocks, overhead + xfer)
            pos = (
                mech.sample_local_seek(self.rng, 1)[0]
                + mech.sample_rotational_latency(self.rng, 1)[0]
            )
            out[0] = pos + overhead + xfer
            return out
        n_pos = self.rng.binomial(n_req, p_pos, size=n_blocks)
        n_pos[0] += 1
        # Sum of exact positioning draws per block (bincount handles blocks
        # with zero positioning events cleanly).
        total = int(n_pos.sum())
        draws = mech.sample_local_seek(self.rng, total)
        draws += mech.sample_rotational_latency(self.rng, total)
        owner = np.repeat(np.arange(n_blocks), n_pos)
        total_pos = np.bincount(owner, weights=draws, minlength=n_blocks)
        # In-place over the bincount result; float addition is commutative
        # bit-for-bit, so this equals ``overhead + total_pos + xfer``.
        total_pos += overhead
        total_pos += xfer
        return total_pos

    def standalone_bandwidth(self, block_bytes: int = 1 << 20, n_blocks: int = 256) -> float:
        """Monte-Carlo mean bandwidth (bytes/s) without background load."""
        t = self.block_service_times(n_blocks, block_bytes)
        return n_blocks * block_bytes / float(t.sum())

    def _block_params(self, block_bytes: int) -> tuple[int, int, float]:
        """Cached ``(sectors, requests, transfer_time)`` for a block size."""
        params = self._block_params_cache.get(block_bytes)
        if params is None:
            sectors = max(1, block_bytes // SECTOR_BYTES)
            n_req = -(-sectors // self.layout.blocking_factor)
            xfer = float(self.mechanics.transfer_time(sectors, self.spt))
            params = (sectors, n_req, xfer)
            self._block_params_cache[block_bytes] = params
        return params

    # -- queue completion times --------------------------------------------------
    #: Minimum service share the drive's scheduler guarantees the
    #: foreground stream: an over-saturating background queue backs up
    #: instead of starving other streams.  Calibrated so a 6 ms-interval
    #: background (~93 % utilisation plus repositioning loss) leaves a fast
    #: sequential foreground ~2 MB/s, matching Fig 6-5.
    MIN_FOREGROUND_SHARE = 0.05

    def completions(self, services: np.ndarray, start: float) -> np.ndarray:
        """Completion time of each queued block, background interleaved.

        ``services`` is the nominal per-block service vector (queue order);
        the disk serves them back-to-back starting at ``start``, interleaved
        FCFS with the background stream: each background request due before
        a foreground block finishes delays it by its own service plus the
        foreground stream's repositioning.  When the background alone would
        exceed ``1 - MIN_FOREGROUND_SHARE`` of the drive, its surplus
        arrivals queue (the drive admits them at the saturation rate), so
        the foreground dilates but never starves (§6.3.2).
        """
        services = np.asarray(services, dtype=np.float64)
        if self.failed:
            # A failed disk never responds — its blocks are erasures.
            return np.full(services.size, np.inf)
        s_cum = services.cumsum()
        s_cum += start
        bg = self.background
        if bg is None or services.size == 0:
            return self._warp(s_cum, start)

        # Repositioning penalty per interruption: only a sequential
        # foreground stream loses positioning work to interleaving.  The
        # (pen, per_bg, interval) triple is deterministic per instance.
        plan = self._bg_plan
        if plan is None:
            pen = self.layout.p_sequential * self.mechanics.mean_positioning_time()
            per_bg = bg.mean_service(self.mechanics, self.spt) + pen
            # Effective admission interval: the drive serves background no
            # faster than the fairness floor allows.
            interval = max(bg.interval_s, per_bg / (1.0 - self.MIN_FOREGROUND_SHARE))
            plan = self._bg_plan = (pen, per_bg, interval)
        pen, per_bg, interval = plan
        eff_util = per_bg / interval
        phase_rng = self.phase_rng if self.phase_rng is not None else self.rng
        phase = start + phase_rng.random() * interval

        # Draw enough background services up front; extend if needed.
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
        """Apply the disk's fault profile (identity when no timeline)."""
        if self.timeline is None:
            return completions
        return self.timeline.warp(completions, start)

    def serve(
        self, n_blocks: int, block_bytes: int, start: float
    ) -> np.ndarray:
        """Sample services and return queue completion times in one call."""
        return self.completions(self.block_service_times(n_blocks, block_bytes), start)


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
    completions = np.asarray(completions)
    finite = completions[np.isfinite(completions)]
    done = int(np.searchsorted(finite, cancel_time, side="right"))
    if done < finite.size:
        done += 1  # in-flight block completes regardless
    return done
