"""Event-driven disk drive entity (the simulator's "virtual disk").

A :class:`DiskDrive` owns a fair-share request queue (foreground and
background requests alternate), head state (current cylinder / last LBA),
and a service loop that times each request either with a caller's
``service_time_fn`` or at sector level, charging controller overhead, seek,
rotational latency and media transfer.  Cancellation removes pending
requests from the queue (§5.3.3).  A background stream can inject
competitive requests into the same queue (§6.2.2).

The service loop and the background stream run on kernel callbacks, not
generator processes.  Two of their hops run in line when the kernel has
nothing else due at the current instant (:meth:`Environment.due_now`):
the wake after a service timeout, and an idle drive's wake-up after a
background arrival.  The event either would have scheduled is then the
next one popped, so every other pair of events keeps its order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

import numpy as np

from repro.disk.geometry import SECTOR_BYTES
from repro.disk.mechanics import DiskMechanics
from repro.disk.scheduler import FairShareQueue
from repro.disk.workload import BackgroundWorkload
from repro.sim import Environment, Event, Timeout
from repro.sim.core import NORMAL, URGENT

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
        #: True while the service loop waits for a submit to wake it.
        self._idle = False
        self.served_requests = 0
        self.served_bytes = 0
        self.busy_time = 0.0
        #: Fault-injection state (see :mod:`repro.faults`): a failed drive
        #: answers every request with an infinite completion time; a slow
        #: factor > 1 stretches each service begun while it is in effect.
        self.failed = False
        self.slow_factor = 1.0
        #: The service in flight: its request, start time and duration.
        self._req: Optional[DiskRequest] = None
        self._t_start = 0.0
        self._duration = 0.0
        #: The in-flight service's timeout while its race against a
        #: fail-stop is open (see :meth:`_serve_next`); ``None`` once
        #: either side has won it.
        self._timer: Optional[Timeout] = None
        # The loop starts one URGENT dispatch from now, where a process's
        # start would be, so requests submitted before then are served
        # at that dispatch without a wake-up.
        self._hop(self._serve_next, URGENT)

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
        if self._idle:
            # The caller keeps running after this call, so the wake-up
            # is an event of its own.
            self._idle = False
            self._hop(self._serve_next)
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
        if self._timer is not None:
            # Abort the service in flight two dispatches from now, this
            # hop and then the wake, unless its timeout wins the race
            # first.  Events due at this instant in the meantime still
            # see the request in service.
            self._hop(partial(self._abort_hop, self._timer))

    def recover(self) -> None:
        """Return a failed drive to service (its queue starts empty)."""
        if not self.failed:
            return
        self.failed = False
        self._last_end_lba = None  # the head re-homes on restart

    def set_slow(self, factor: float) -> None:
        """Stretch every subsequently started service by ``factor`` (>= 1)."""
        if factor < 1.0:
            raise ValueError("slow factor must be >= 1")
        self.slow_factor = float(factor)

    # -- background workload --------------------------------------------------
    def attach_background(self, workload: BackgroundWorkload) -> None:
        """Start injecting the competitive request stream into this drive.

        The stream's phase is drawn one URGENT dispatch from now; from
        then on each arrival queues one request and schedules the next
        ``interval_s`` later.
        """
        if not workload.enabled:
            return
        env = self.env
        interval = workload.interval_s

        def arrive(event: Event) -> None:
            request = DiskRequest(
                lba=workload.next_lba(),
                sectors=workload.sectors,
                tag="background",
                is_background=True,
            )
            # An idle drive's wake-up would be the next event popped when
            # nothing else is due now; it then runs in line, after the
            # next arrival is scheduled, which keeps the insertion order
            # of the next arrival and the service timeout.
            in_line = self._idle and not self.failed and not env.due_now()
            if in_line:
                self._idle = False  # so submit schedules no wake-up
            self.submit(request)
            Timeout(env, interval).callbacks.append(arrive)
            if in_line:
                self._serve_next()

        def first_arrival(event: Event) -> None:
            Timeout(env, workload.rng.random() * interval).callbacks.append(arrive)

        self._hop(first_arrival, URGENT)

    # -- service loop ----------------------------------------------------------
    def _hop(self, callback: Callable[[Event], None], priority: int = NORMAL) -> None:
        """Run ``callback`` at a zero-delay event of its own."""
        event = Event(self.env)
        event.callbacks.append(callback)
        self.env.schedule(event, priority)

    def _serve_next(self, event: Optional[Event] = None) -> None:
        """Start serving the next queued request, or idle until a submit."""
        if not self.queue:
            self._idle = True
            return
        env = self.env
        req = self._req = self.queue.pop()
        self._t_start = env.now
        self._duration = service = self._service_time(req) * self.slow_factor
        # Race the service against a fail-stop: the timeout and fail()'s
        # hop each settle it, and whichever comes first wins.  A drive
        # that dies mid-transfer never delivers the request.
        timer = self._timer = Timeout(env, service)
        timer.callbacks.append(self._timed_out)

    def _timed_out(self, timer: Timeout) -> None:
        if timer is not self._timer:
            return  # fail()'s hop aborted this service first
        self._timer = None
        # The wake after the timeout would be the next event popped when
        # nothing else is due now; it then runs in line.
        if self.env.due_now():
            self._hop(self._complete)
        else:
            self._complete()

    def _abort_hop(self, timer: Timeout, event: Event) -> None:
        if timer is self._timer:  # else this service's timeout won
            self._timer = None
            self._hop(self._abort)

    def _abort(self, event: Event) -> None:
        """Wake after fail(): the service in flight dies mid-transfer."""
        req = self._req
        self.busy_time += self.env.now - self._t_start
        if req.done is not None and not req.done.triggered:
            req.done.succeed(_INF)
        self._serve_next()

    def _complete(self, event: Optional[Event] = None) -> None:
        """Wake after the timeout: the service in flight is done."""
        req = self._req
        self.busy_time += self._duration
        self.served_requests += 1
        self.served_bytes += req.bytes
        if req.done is not None and not req.done.triggered:
            req.done.succeed(self.env.now)
        self._serve_next()

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
