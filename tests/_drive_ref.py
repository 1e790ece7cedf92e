"""Reference disk drive: the request path before the scalar rewrite.

This module preserves the per-request path :class:`repro.disk.drive.DiskDrive`
had before it was cut down to Python-int arithmetic and the kernel events
the model needs:

* zone lookups are numpy ``searchsorted`` formulas over int64 tables
  (:class:`NumpyZoneMap`, the vectorised ``DiskGeometry`` lookups as they
  were);
* every submitted request gets a ``done`` event, background requests too;
* each service races its timeout against an abort event through
  ``env.any_of``, and ``fail`` succeeds the abort event.

It exists solely as the oracle for the differential suite in
``tests/test_drive_oracle.py`` (and, for the lookups, in
``tests/test_disk_geometry.py``): both drives run the same seeded scripts
and must agree on every result.  Tracing is left out; it schedules
nothing.  Do not use this in production paths.
"""

from __future__ import annotations

import numpy as np

from repro.disk.drive import BUS_RATE_BPS, DiskDrive

__all__ = ["NumpyZoneMap", "ReferenceDrive"]


class NumpyZoneMap:
    """A geometry's LBA -> zone, cylinder and sectors-per-track lookups,
    vectorised over int64 arrays."""

    def __init__(self, geometry) -> None:
        starts = [0]
        for z in geometry.zones:
            starts.append(starts[-1] + z.cylinders * geometry.heads * z.sectors_per_track)
        self.heads = geometry.heads
        self._zone_sector_starts = np.array(starts, dtype=np.int64)
        self._zone_cyl_los = np.array([z.cyl_lo for z in geometry.zones], dtype=np.int64)
        self._zone_spts = np.array(
            [z.sectors_per_track for z in geometry.zones], dtype=np.int64
        )

    @property
    def total_sectors(self) -> int:
        return int(self._zone_sector_starts[-1])

    def zone_index_of_lba(self, lba) -> np.ndarray:
        lba = np.asarray(lba, dtype=np.int64)
        if np.any((lba < 0) | (lba >= self.total_sectors)):
            raise ValueError("LBA out of range")
        return np.searchsorted(self._zone_sector_starts, lba, side="right") - 1

    def cylinder_of_lba(self, lba) -> np.ndarray:
        lba = np.asarray(lba, dtype=np.int64)
        zi = self.zone_index_of_lba(lba)
        off = lba - self._zone_sector_starts[zi]
        per_cyl = self.heads * self._zone_spts[zi]
        return self._zone_cyl_los[zi] + off // per_cyl

    def spt_of_lba(self, lba) -> np.ndarray:
        return self._zone_spts[self.zone_index_of_lba(lba)]


class ReferenceDrive(DiskDrive):
    """:class:`DiskDrive` with the request path it had before the rewrite."""

    def __init__(self, env, mechanics, *args, **kwargs) -> None:
        self._abort = None
        self.zone_map = NumpyZoneMap(mechanics.geometry)
        super().__init__(env, mechanics, *args, **kwargs)

    def submit(self, request):
        if request.done is None:
            request.done = self.env.event()
        if self.failed:
            request.done.succeed(float("inf"))
            return request
        request.cylinder = int(self.zone_map.cylinder_of_lba(request.lba))
        self.queue.push(request)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed(None)
        return request

    def fail(self) -> None:
        if self.failed:
            return
        self.failed = True
        flushed = self.queue.cancel(lambda req: True)
        for req in flushed:
            if req.done is not None and not req.done.triggered:
                req.done.succeed(float("inf"))
        if self._abort is not None and not self._abort.triggered:
            self._abort.succeed(None)

    def _run(self):
        env = self.env
        while True:
            while not self.queue:
                self._wakeup = env.event()
                yield self._wakeup
                self._wakeup = None
            req = self.queue.pop(self.current_cylinder)
            self.busy = True
            t_start = env.now
            service = self._service_time(req) * self.slow_factor
            done = env.timeout(service)
            self._abort = env.event()
            yield env.any_of([done, self._abort])
            # A Timeout is `triggered` from construction (it carries its
            # value immediately); only `processed` says it actually fired.
            aborted = self._abort.triggered and not done.processed
            self._abort = None
            self.busy = False
            if aborted:
                self.busy_time += env.now - t_start
                if req.done is not None and not req.done.triggered:
                    req.done.succeed(float("inf"))
                continue
            self.busy_time += service
            self.served_requests += 1
            self.served_bytes += req.bytes
            if req.done is not None and not req.done.triggered:
                req.done.succeed(env.now)

    def _service_time(self, req) -> float:
        if self.service_time_fn is not None:
            return self.service_time_fn(req)
        mech = self.mechanics
        t = mech.spec.controller_overhead_s
        if self.cache is not None and self.cache.lookup(req.lba, req.sectors):
            return t + req.bytes / BUS_RATE_BPS
        sequential = self._last_end_lba is not None and req.lba == self._last_end_lba
        if not sequential:
            dist = abs(req.cylinder - self.current_cylinder)
            t += float(mech.seek_time(dist))
            t += float(mech.sample_rotational_latency(self.rng, 1)[0])
        spt = int(self.zone_map.spt_of_lba(req.lba))
        t += float(mech.transfer_time(req.sectors, spt))
        self.current_cylinder = int(
            self.zone_map.cylinder_of_lba(req.lba + req.sectors - 1)
        )
        self._last_end_lba = req.lba + req.sectors
        if self.cache is not None:
            self.cache.fill(req.lba, req.sectors)
        return t
