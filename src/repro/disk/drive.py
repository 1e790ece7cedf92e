"""Event-driven disk drive entity (the simulator's "virtual disk").

A :class:`DiskDrive` owns a fair-share request queue (foreground and
background requests alternate), head state (current cylinder / last LBA),
and a service process that times each request either with a caller's
``service_time_fn`` or at sector level, charging controller overhead, seek,
rotational latency and media transfer.  Cancellation removes pending
requests from the queue (§5.3.3).  A background-workload process can inject
competitive requests into the same queue (§6.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Optional

import numpy as np

from repro.disk.geometry import SECTOR_BYTES
from repro.disk.mechanics import DiskMechanics
from repro.disk.scheduler import FairShareQueue
from repro.disk.workload import BackgroundWorkload
from repro.sim import Environment, Event

_drive_ids = count()
_INF = float("inf")


@dataclass
class DiskRequest:
    """One physical request submitted to a drive.

    Attributes
    ----------
    lba, sectors:
        Target extent.
    tag:
        Opaque owner handle (used by cancellation predicates).
    is_background:
        True for competitive-workload requests.
    done:
        Fires with the completion time when served; with ``None`` when
        cancelled.  ``None`` for background requests, which are
        fire-and-forget: nothing waits for them, so the drive gives them
        no event.
    """

    lba: int
    sectors: int
    tag: Any = None
    is_background: bool = False
    done: Optional[Event] = None

    @property
    def bytes(self) -> int:
        return self.sectors * SECTOR_BYTES


class DiskDrive:
    """An event-driven hard-drive model.

    Parameters
    ----------
    env:
        Simulation environment.
    mechanics:
        Mechanical model (shared geometry).
    rng:
        Random stream for rotational phases.  Optional when
        ``service_time_fn`` times every request.
    service_time_fn:
        Optional replacement of the sector-level timing, called with each
        request as its service begins.
    """

    def __init__(
        self,
        env: Environment,
        mechanics: DiskMechanics,
        rng: np.random.Generator | None = None,
        service_time_fn: Optional[Callable[["DiskRequest"], float]] = None,
    ) -> None:
        if rng is None and service_time_fn is None:
            raise ValueError("a drive without a service_time_fn needs an rng")
        self.env = env
        self.mechanics = mechanics
        self.rng = rng
        self.queue = FairShareQueue()
        #: Optional override of the sector-level timing — e.g. the
        #: reference engine substitutes the calibrated block-service model
        #: so both engines draw from one distribution.
        self.service_time_fn = service_time_fn
        self.current_cylinder = 0
        self._last_end_lba: Optional[int] = None
        self._wakeup: Optional[Event] = None
        self.served_requests = 0
        self.served_bytes = 0
        self.busy_time = 0.0
        #: Fault-injection state (see :mod:`repro.faults`): a failed drive
        #: answers every request with an infinite completion time; a slow
        #: factor > 1 stretches each service begun while it is in effect.
        self.failed = False
        self.slow_factor = 1.0
        #: The event the service in flight waits on (see :meth:`_run`).
        self._wake: Optional[Event] = None
        self.tracer = env.tracer
        self.obs_name = f"drive{next(_drive_ids)}"
        env.process(self._run(), name="disk-drive")

    # -- client interface ---------------------------------------------------
    def submit(self, request: DiskRequest) -> DiskRequest:
        """Queue a request; a foreground request's ``done`` event fires on
        completion (background requests get none).

        Submitting to a failed drive completes the request immediately with
        an infinite timestamp — the erasure signal the schemes act on.
        """
        if request.done is None and not request.is_background:
            request.done = Event(self.env)
        if self.failed:
            if request.done is not None:
                request.done.succeed(_INF)
            return request
        self.queue.push(request)
        if self.tracer.enabled:
            self.tracer.counter(
                "drive.queue_depth", self.env.now, len(self.queue), track=self.obs_name
            )
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed(None)
        return request

    def read(self, lba: int, sectors: int, tag: Any = None) -> DiskRequest:
        """Convenience: submit a foreground read."""
        return self.submit(DiskRequest(lba=lba, sectors=sectors, tag=tag))

    def cancel(self, predicate: Callable[[DiskRequest], bool]) -> int:
        """Remove queued requests matching ``predicate``; return the count.

        The request currently being served is not interrupted (its bytes
        are already in flight).
        """
        removed = self.queue.cancel(predicate)
        for req in removed:
            if req.done is not None and not req.done.triggered:
                req.done.succeed(None)
        if removed and self.tracer.enabled:
            self.tracer.count("drive.cancelled_requests", len(removed))
            self.tracer.instant(
                "drive.cancel",
                "drive",
                self.env.now,
                track=self.obs_name,
                args={"removed": len(removed)},
            )
        return len(removed)

    # -- fault injection -------------------------------------------------------
    def fail(self) -> None:
        """Fail-stop the drive *now*.

        The in-flight request (if any) aborts with an infinite completion,
        every queued request flushes the same way, and later submissions
        complete immediately at ``inf`` until :meth:`recover`.
        """
        if self.failed:
            return
        self.failed = True
        flushed = self.queue.cancel(lambda req: True)
        for req in flushed:
            if req.done is not None and not req.done.triggered:
                req.done.succeed(_INF)
        wake, self._wake = self._wake, None
        if wake is not None:
            # Abort the service in flight, once, one hop later: a
            # completion also reaches the service loop in two dispatches
            # (timeout, then wake), so same-instant events keep their
            # order either way.
            self.env.timeout(0).callbacks.append(wake.succeed_once)
        if self.tracer.enabled:
            self.tracer.instant(
                "drive.fail",
                "drive",
                self.env.now,
                track=self.obs_name,
                args={"flushed": len(flushed)},
            )

    def recover(self) -> None:
        """Return a failed drive to service (its queue starts empty)."""
        if not self.failed:
            return
        self.failed = False
        self._last_end_lba = None  # the head re-homes on restart
        if self.tracer.enabled:
            self.tracer.instant(
                "drive.recover", "drive", self.env.now, track=self.obs_name
            )

    def set_slow(self, factor: float) -> None:
        """Stretch every subsequently started service by ``factor`` (>= 1)."""
        if factor < 1.0:
            raise ValueError("slow factor must be >= 1")
        self.slow_factor = float(factor)
        if self.tracer.enabled:
            self.tracer.instant(
                "drive.slow",
                "drive",
                self.env.now,
                track=self.obs_name,
                args={"factor": factor},
            )

    # -- background workload --------------------------------------------------
    def attach_background(self, workload: BackgroundWorkload) -> None:
        """Start injecting the competitive request stream into this drive."""
        if workload.enabled:
            self.env.process(self._background_loop(workload), name="disk-bg")

    def _background_loop(self, workload: BackgroundWorkload):
        interval = workload.interval_s
        yield self.env.timeout(workload.rng.random() * interval)
        while True:
            pattern = workload.next_request()
            self.submit(
                DiskRequest(
                    lba=pattern.lba,
                    sectors=pattern.sectors,
                    is_background=True,
                    tag="background",
                )
            )
            yield self.env.timeout(interval)

    # -- service loop ----------------------------------------------------------
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
            # Race the service against a fail-stop: the timeout and
            # fail()'s hop both fire one wake event, and whichever comes
            # first wins.  A drive that dies mid-transfer never delivers
            # the request.
            timeout = env.timeout(service)
            wake = self._wake = Event(env)
            timeout.callbacks.append(wake.succeed_once)
            yield wake
            self._wake = None
            if not timeout.processed:
                # fail()'s hop woke the loop before the service finished.
                self.busy_time += env.now - t_start
                if req.done is not None and not req.done.triggered:
                    req.done.succeed(_INF)
                if self.tracer.enabled:
                    self.tracer.instant(
                        "drive.abort",
                        "drive",
                        env.now,
                        track=self.obs_name,
                        args={"lba": req.lba, "sectors": req.sectors},
                    )
                continue
            self.busy_time += service
            self.served_requests += 1
            self.served_bytes += req.bytes
            if self.tracer.enabled:
                self.tracer.span(
                    "drive.service",
                    "drive",
                    t_start,
                    env.now,
                    track=self.obs_name,
                    args={
                        "lba": req.lba,
                        "sectors": req.sectors,
                        "background": req.is_background,
                    },
                )
                self.tracer.counter(
                    "drive.queue_depth", env.now, len(self.queue), track=self.obs_name
                )
            if req.done is not None and not req.done.triggered:
                req.done.succeed(env.now)

    def _service_time(self, req: DiskRequest) -> float:
        if self.service_time_fn is not None:
            return self.service_time_fn(req)
        mech = self.mechanics
        spec = mech.spec
        t = spec.controller_overhead_s

        sequential = self._last_end_lba is not None and req.lba == self._last_end_lba
        if not sequential:
            dist = abs(mech.geometry.cylinder_of_lba(req.lba) - self.current_cylinder)
            t += float(mech.seek_time(dist))
            t += float(mech.sample_rotational_latency(self.rng, 1)[0])
        spt = mech.geometry.spt_of_lba(req.lba)
        t += float(mech.transfer_time(req.sectors, spt))

        self.current_cylinder = mech.geometry.cylinder_of_lba(req.lba + req.sectors - 1)
        self._last_end_lba = req.lba + req.sectors
        return t
