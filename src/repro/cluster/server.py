"""The storage cluster: filers, attached disks, per-trial disk state (§6.2.2)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.filer import Filer
from repro.cluster.fscache import SetAssociativeCache
from repro.disk.mechanics import DiskMechanics
from repro.disk.service import BackgroundLoad, BlockService
from repro.disk.workload import BLOCKING_FACTORS, InDiskLayout, layout_at
from repro.net.link import Link
from repro.obs.tracer import NULL_TRACER


@dataclass
class DiskState:
    """Per-trial state of one virtual disk.

    The in-disk layout and zone are redrawn per access trial — they are the
    experiments' primary source of performance variation (§6.2.5).
    ``failed`` disks never respond: their blocks are effectively erased,
    the situation erasure-coded redundancy exists to survive (§5.3.1).
    """

    disk_id: int
    layout: InDiskLayout
    spt: int
    background: BackgroundLoad | None = None
    failed: bool = False


class Cluster:
    """The simulated storage cluster: filers, disks, per-trial disk state.

    Parameters
    ----------
    n_disks:
        Total disks in the pool (128 in the baseline).
    disks_per_filer:
        Disks per filer (8 in the baseline).
    rtt_s:
        Client <-> filer round-trip latency.
    fs_cache_bytes:
        Per-filer filesystem cache size; 0 disables caching.
    mechanics:
        Shared drive mechanics.
    tracer:
        Optional :class:`repro.obs.Tracer` shared by every filer; the
        access machinery reads it off the cluster (``cluster.tracer``).
    """

    def __init__(
        self,
        n_disks: int = 128,
        disks_per_filer: int = 8,
        rtt_s: float = 0.001,
        fs_cache_bytes: int = 0,
        cache_line_bytes: int = 1 << 20,
        mechanics: DiskMechanics | None = None,
        tracer=None,
    ) -> None:
        if n_disks < 1 or disks_per_filer < 1:
            raise ValueError("disk counts must be positive")
        self.n_disks = n_disks
        self.disks_per_filer = disks_per_filer
        self.mechanics = mechanics or DiskMechanics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.filers: list[Filer] = []
        n_filers = -(-n_disks // disks_per_filer)
        for f in range(n_filers):
            ids = list(range(f * disks_per_filer, min((f + 1) * disks_per_filer, n_disks)))
            cache = (
                SetAssociativeCache(fs_cache_bytes, line_bytes=cache_line_bytes)
                if fs_cache_bytes > 0
                else None
            )
            self.filers.append(Filer(f, ids, Link(rtt_s=rtt_s), cache, tracer=self.tracer))
        self._disk_states: dict[int, DiskState] = {}
        #: Active :class:`repro.faults.inject.FaultInjector`, or ``None``.
        self.faults = None
        #: Installed :class:`repro.core.repair.RepairLedger`, or ``None``:
        #: its ``floor`` is the repair-trigger floor, and it meters every
        #: degraded read (the fault reaction's ``annotate``) and every
        #: repair pass (:mod:`repro.core.repair`).
        self.repair_ledger = None

    @property
    def n_filers(self) -> int:
        return len(self.filers)

    def filer_of_disk(self, disk_id: int) -> Filer:
        return self.filers[disk_id // self.disks_per_filer]

    # -- per-trial state --------------------------------------------------------
    def redraw_disk_states(
        self,
        rng: np.random.Generator,
        layout: InDiskLayout | None = None,
        background_intervals: dict[int, float] | None = None,
        fixed_zone: int | None = None,
        failed_disks: set[int] | None = None,
    ) -> None:
        """Draw fresh per-disk layout/zone state for a new access trial.

        ``layout=None`` gives each disk an independent heterogeneous draw;
        passing a fixed layout models the homogeneous environment.
        ``background_intervals`` maps disk_id -> competitive-load interval.
        ``fixed_zone`` pins every disk's data to one zone (fully homogeneous
        media rate); otherwise each disk draws a random zone.
        ``failed_disks`` never respond to requests.
        """
        zones = self.mechanics.geometry.zones
        bg = background_intervals or {}
        failed = failed_disks or set()
        n = self.n_disks
        # Per-disk draw pattern: (bf, p_seq) indices when the layout is
        # heterogeneous, then a zone index when none is pinned.  One
        # broadcast bounded-integer call consumes the PCG64 bit stream
        # exactly as the per-disk scalar draws did (numpy's array-bound
        # path rejects per element in order; verified value- and
        # state-identical across seeds), so trials stay bit-identical.
        pat = []
        if layout is None:
            pat += [len(BLOCKING_FACTORS), 2]
        if fixed_zone is None:
            pat.append(len(zones))
        rows = None
        if pat:
            rows = rng.integers(0, np.tile(np.array(pat), n)).reshape(n, len(pat)).tolist()
        states = self._disk_states
        for d in range(n):
            if layout is None:
                row = rows[d]
                lay = layout_at(row[0], row[1])
                zi = fixed_zone if fixed_zone is not None else row[-1]
            else:
                lay = layout
                zi = fixed_zone if fixed_zone is not None else rows[d][0]
            spt = int(zones[zi].sectors_per_track)
            load = BackgroundLoad(bg[d]) if d in bg else None
            states[d] = DiskState(d, lay, spt, load, failed=d in failed)

    def disk_state(self, disk_id: int) -> DiskState:
        return self._disk_states[disk_id]

    def has_background(self, disk_id: int) -> bool:
        """Whether the disk serves a background load.

        Exactly these disks draw a background phase in :meth:`block_service`,
        so an access derives ``"bgphase"`` streams for them alone.  A disk
        whose state was never drawn has none.
        """
        st = self._disk_states.get(disk_id)
        return st is not None and st.background is not None

    # -- fault injection --------------------------------------------------------
    def install_faults(self, plan) -> None:
        """Install a :class:`repro.faults.plan.FaultPlan` (or ``None`` to clear).

        Compiles the plan against this cluster's topology and exposes the
        resulting injector as ``self.faults``; subsequent
        :meth:`block_service` calls hand each disk its fault timeline and
        the access machinery routes messages through the link timelines.
        Installing ``None`` or an empty plan restores bit-identical
        unfaulted behaviour.
        """
        if plan is None:
            self.faults = None
            return
        # Imported lazily: repro.faults.inject reaches back into repro.core.
        from repro.faults.inject import FaultInjector

        injector = FaultInjector(self, plan)
        self.faults = injector if injector.has_faults else None

    def disk_timeline(self, disk_id: int):
        """The disk's fault timeline under the active injector (or ``None``)."""
        return None if self.faults is None else self.faults.timeline(disk_id)

    def link_timeline(self, disk_id: int):
        """The fault timeline of the link serving ``disk_id`` (or ``None``)."""
        return None if self.faults is None else self.faults.link_for_disk(disk_id)

    def block_service(self, disk_ids, rngs, phase_rng_for=None) -> BlockService:
        """A vectorised service model bound to the disks' current state.

        ``disk_ids`` is one disk id and ``rngs`` its random stream, or a
        sequence of ids and their streams, aligned: the model of an access's
        disks, sampled in one array pass.  ``phase_rng_for(disk_id)`` (when
        given) supplies the dedicated ``"bgphase"`` stream for the
        background phase draw.  It is only invoked for disks
        :meth:`has_background` names — stream derivation costs real hash
        work, and background-free experiments (most of the grid) must not
        pay it per disk per access.
        """
        if isinstance(disk_ids, (int, np.integer)):
            st = self._disk_states[disk_ids]
            return BlockService(
                self.mechanics,
                st.layout,
                st.spt,
                rngs,
                st.background,
                failed=st.failed,
                timeline=self.disk_timeline(disk_ids),
                phase_rng=(
                    None
                    if st.background is None or phase_rng_for is None
                    else phase_rng_for(disk_ids)
                ),
            )
        states = [self._disk_states[d] for d in disk_ids]
        backgrounds = [st.background for st in states]
        timelines = [None] * len(states)
        if self.faults is not None:
            timelines = [self.disk_timeline(d) for d in disk_ids]
        return BlockService.over(
            self.mechanics,
            [st.layout for st in states],
            [st.spt for st in states],
            list(rngs),
            backgrounds,
            [st.failed for st in states],
            timelines,
            [
                None if bg is None or phase_rng_for is None else phase_rng_for(d)
                for d, bg in zip(disk_ids, backgrounds)
            ],
        )

    def age_caches(self, window_s: float) -> None:
        """Run ``window_s`` of competing cache traffic through every filer.

        Each disk's background stream (if any) reads ~50-sector requests at
        its interval; that competing data shares the filer cache and evicts
        resident lines (§6.3.3).
        """
        from repro.disk.geometry import SECTOR_BYTES
        from repro.disk.workload import BACKGROUND_SECTORS

        for filer in self.filers:
            volume = 0.0
            for d in filer.disk_ids:
                st = self._disk_states.get(d)
                if st is not None and st.background is not None:
                    rate = BACKGROUND_SECTORS * SECTOR_BYTES / st.background.interval_s
                    volume += rate * window_s
            filer.age_cache(int(volume))

    # -- accounting -----------------------------------------------------------
    @property
    def total_network_bytes(self) -> int:
        return sum(f.link.bytes_sent for f in self.filers)

    def reset_network_counters(self) -> None:
        for f in self.filers:
            f.link.bytes_sent = 0
