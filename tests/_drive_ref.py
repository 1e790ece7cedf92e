"""Reference disk drive: the request path before the scalar rewrite.

This module preserves the per-request path :class:`repro.disk.drive.DiskDrive`
had before it was cut down to Python-int arithmetic, the kernel events
the model needs and a two-FIFO queue, and before its service loop and
background stream moved onto kernel callbacks:

* zone lookups are numpy ``searchsorted`` formulas over int64 tables
  (:class:`NumpyZoneMap`, the vectorised ``DiskGeometry`` lookups as they
  were);
* the fair-share queue is one list scanned for the first request of the
  class whose turn it is (:class:`ListFairShareQueue`, kept as it was);
* every submitted request gets a ``done`` event, background requests too;
* each service races its timeout against an abort event through
  ``env.any_of``, and ``fail`` succeeds the abort event;
* the service loop (``_run``) and the background stream
  (``_background_loop``) are generator processes, every hop between them
  is a scheduled event (one wake-up per submit to an idle drive, one
  wake per finished service), and the stream draws one scalar LBA per
  request.

It exists solely as the oracle for the differential suite in
``tests/test_drive_oracle.py`` (and, for the lookups, in
``tests/test_disk_geometry.py``): both drives run the same seeded scripts
and must agree on every result.  Tracing is left out; it schedules
nothing.  Do not use this in production paths.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.disk.drive import DiskDrive, DiskRequest

__all__ = ["ListFairShareQueue", "NumpyZoneMap", "ReferenceDrive"]


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


class ListRequestQueue:
    """Base class: a mutable queue of pending disk requests."""

    def __init__(self) -> None:
        self._items: list[Any] = []
        #: Deepest the queue has ever been (observability: queue-depth
        #: accounting survives even without a live tracer attached).
        self.max_depth = 0
        #: Total requests removed by :meth:`cancel` over the queue's life.
        self.cancelled_total = 0

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def push(self, request: Any) -> None:
        self._items.append(request)
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)

    def pop(self, head_cylinder: int = 0) -> Any:
        """Remove and return the next request to serve."""
        raise NotImplementedError

    def cancel(self, predicate: Callable[[Any], bool]) -> list[Any]:
        """Remove and return all queued requests matching ``predicate``.

        One pass, calling ``predicate`` once per queued request; the
        removed and the kept requests each stay in queue order.
        """
        hit: list[Any] = []
        kept: list[Any] = []
        for r in self._items:
            (hit if predicate(r) else kept).append(r)
        self._items = kept
        self.cancelled_total += len(hit)
        return hit

    def peek_all(self) -> list[Any]:
        return list(self._items)


class ListFairShareQueue(ListRequestQueue):
    """Round-robin between foreground and background request classes.

    A client that queues a large burst of foreground block requests must
    not starve the competitive background stream (nor vice versa): the
    drive alternates service between the two classes whenever both have
    pending work, matching the interleaving the dissertation's experiments
    assume (§6.2.2, §6.3.2).
    """

    def __init__(self) -> None:
        super().__init__()
        self._turn_background = False

    def pop(self, head_cylinder: int = 0) -> Any:
        if not self._items:
            raise IndexError("pop from empty queue")
        want_bg = self._turn_background
        for preferred in (want_bg, not want_bg):
            for i, r in enumerate(self._items):
                if bool(getattr(r, "is_background", False)) == preferred:
                    self._turn_background = not preferred
                    return self._items.pop(i)
        raise AssertionError("unreachable")


class ReferenceDrive(DiskDrive):
    """:class:`DiskDrive` with the request path it had before the rewrite."""

    def __init__(self, env, mechanics, *args, **kwargs) -> None:
        self._abort = None
        self._wakeup = None
        self.zone_map = NumpyZoneMap(mechanics.geometry)
        super().__init__(env, mechanics, *args, **kwargs)
        self.queue = ListFairShareQueue()
        env.process(self._run(), name="disk-drive")

    def _serve_next(self, event=None) -> None:
        """The start event ``DiskDrive.__init__`` schedules: a no-op here,
        where :meth:`_run`'s own process, started right after it, serves."""

    def attach_background(self, workload) -> None:
        if workload.enabled:
            self.env.process(self._background_loop(workload), name="disk-bg")

    def _background_loop(self, workload):
        interval = workload.interval_s
        rng = workload.rng
        hi = workload.extent_sectors - workload.sectors
        yield self.env.timeout(rng.random() * interval)
        while True:
            lba = workload.extent_start + int(rng.integers(0, hi + 1))
            self.submit(DiskRequest(
                lba=lba, sectors=workload.sectors, is_background=True, tag="background"
            ))
            yield self.env.timeout(interval)

    def submit(self, request):
        if request.done is None:
            request.done = self.env.event()
        if self.failed:
            request.done.succeed(float("inf"))
            return request
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
            req = self.queue.pop()
            t_start = env.now
            service = self._service_time(req) * self.slow_factor
            done = env.timeout(service)
            self._abort = env.event()
            yield env.any_of([done, self._abort])
            # A Timeout is `triggered` from construction (it carries its
            # value immediately); only `processed` says it actually fired.
            aborted = self._abort.triggered and not done.processed
            self._abort = None
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
        sequential = self._last_end_lba is not None and req.lba == self._last_end_lba
        if not sequential:
            cylinder = int(self.zone_map.cylinder_of_lba(req.lba))
            dist = abs(cylinder - self.current_cylinder)
            t += float(mech.seek_time(dist))
            t += float(mech.sample_rotational_latency(self.rng, 1)[0])
        spt = int(self.zone_map.spt_of_lba(req.lba))
        t += float(mech.transfer_time(req.sectors, spt))
        self.current_cylinder = int(
            self.zone_map.cylinder_of_lba(req.lba + req.sectors - 1)
        )
        self._last_end_lba = req.lba + req.sectors
        return t
