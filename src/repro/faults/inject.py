"""The live fault injector a cluster carries during a faulted run.

``cluster.install_faults(plan)`` compiles the plan against the cluster's
topology and hangs the resulting :class:`FaultInjector` off
``cluster.faults``; from there:

* :meth:`repro.cluster.server.Cluster.block_service` hands each
  :class:`repro.disk.service.BlockService` its disk's
  :class:`repro.faults.timeline.DiskTimeline`, so queue completion times
  are warped in closed form (fail-stop -> ``inf``, slowdown -> stretch,
  recovery -> resume);
* the access machinery (:mod:`repro.accesscore.routing`) routes request and
  response instants through the per-filer
  :class:`repro.faults.timeline.LinkTimeline`;
* schemes consult :meth:`down_at` / :meth:`first_recovery_after` /
  :meth:`permanently_failed` to re-speculate and to decide when lost
  redundancy warrants a :func:`repro.core.repair.maybe_repair` pass;
* :meth:`schedule_on` registers the plan as real events on a DES
  :class:`repro.sim.core.Environment`, flipping event-driven
  :class:`repro.disk.drive.DiskDrive` entities mid-service and emitting
  ``fault.*`` trace instants through ``repro.obs``.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.faults.plan import (
    DISK_FAIL,
    DISK_RECOVER,
    DISK_SLOW,
    FILER_CRASH,
    FaultPlan,
)
from repro.faults.timeline import DiskTimeline, LinkTimeline, compile_plan


class FaultInjector:
    """A compiled fault plan bound to one cluster.

    Parameters
    ----------
    cluster:
        The :class:`repro.cluster.server.Cluster` (only its topology —
        ``n_disks`` / ``disks_per_filer`` — is read at compile time).
    plan:
        The fault schedule.  An empty plan compiles to no timelines at
        all, so every simulated quantity stays bit-identical to an
        uninstrumented run.
    """

    def __init__(self, cluster, plan: FaultPlan) -> None:
        self.cluster = cluster
        self.plan = plan
        self._disk_tl, self._link_tl = compile_plan(
            plan, cluster.disks_per_filer, cluster.n_disks
        )
        # Times at which capacity comes back anywhere: disk recoveries,
        # fail windows ending, filer restarts.  Schemes use these to decide
        # when re-speculation can possibly help.
        recoveries: list[float] = []
        for ev in plan:
            if ev.kind == DISK_RECOVER:
                recoveries.append(ev.t)
            elif ev.kind in (DISK_FAIL, FILER_CRASH) and ev.duration is not None:
                recoveries.append(ev.t + ev.duration)
        self._recovery_times = sorted(recoveries)

    # -- timeline access -------------------------------------------------------
    def timeline(self, disk_id: int) -> Optional[DiskTimeline]:
        """The disk's service-rate profile, or ``None`` if unfaulted."""
        return self._disk_tl.get(int(disk_id))

    def link(self, server_id: int) -> Optional[LinkTimeline]:
        """The server link's latency profile, or ``None`` if unfaulted."""
        return self._link_tl.get(int(server_id))

    def link_for_disk(self, disk_id: int) -> Optional[LinkTimeline]:
        return self.link(int(disk_id) // self.cluster.disks_per_filer)

    # -- state queries ---------------------------------------------------------
    def down_at(self, disk_id: int, t: float) -> bool:
        """Is the disk (or its filer) out of service at time ``t``?"""
        tl = self.timeline(disk_id)
        return tl is not None and tl.down_at(t)

    def permanently_failed(self, disk_id: int) -> bool:
        """Does the disk's profile end in an outage with no recovery?"""
        tl = self.timeline(disk_id)
        return tl is not None and tl.down_forever

    def first_recovery_after(self, t: float) -> Optional[float]:
        """Earliest instant after ``t`` at which any capacity returns."""
        for rt in self._recovery_times:
            if rt > t:
                return rt
        return None

    @property
    def has_faults(self) -> bool:
        return not self.plan.is_empty

    # -- observability ---------------------------------------------------------
    def emit_trace(self, tracer) -> None:
        """Record every planned fault as an instant on the ``fault`` track."""
        if not tracer.enabled:
            return
        for ev in self.plan:
            tracer.instant(
                f"fault.{ev.kind}", "fault", ev.t, track="fault", args=ev.describe()
            )
            tracer.count(f"fault.events:{ev.kind}")

    # -- DES integration -------------------------------------------------------
    def schedule_on(self, env, drives: Mapping[int, object] | None = None):
        """Register the plan as timed events on a DES environment.

        ``drives`` maps disk ids to event-driven
        :class:`repro.disk.drive.DiskDrive` entities; their ``fail`` /
        ``recover`` / ``set_slow`` hooks run at the scheduled instants
        (in-flight requests abort to ``inf``, queued ones are flushed).
        Every dispatched fault also lands on the trace as a
        ``fault.<kind>`` instant.  Returns the driver process.
        """
        drives = dict(drives or {})
        # Expand windowed faults into (time, action) pairs so a single
        # ordered pump can replay them.
        actions: list[tuple[float, int, str, object]] = []
        for i, ev in enumerate(self.plan):
            actions.append((ev.t, i, "start", ev))
            if ev.duration is not None and ev.kind in (DISK_FAIL, DISK_SLOW, FILER_CRASH):
                actions.append((ev.t + ev.duration, i, "end", ev))
        actions.sort(key=lambda a: (a[0], a[1]))
        tracer = env.tracer

        def filer_drives(filer_id: int):
            lo = filer_id * self.cluster.disks_per_filer
            hi = lo + self.cluster.disks_per_filer
            return [drives[d] for d in range(lo, hi) if d in drives]

        def apply(edge: str, ev) -> None:
            targets = []
            if ev.disk is not None and ev.disk in drives:
                targets = [drives[ev.disk]]
            elif ev.kind == FILER_CRASH:
                targets = filer_drives(int(ev.filer))
            for drive in targets:
                if ev.kind in (DISK_FAIL, FILER_CRASH):
                    if edge == "start":
                        drive.fail()
                    else:
                        drive.recover()
                elif ev.kind == DISK_RECOVER:
                    drive.recover()
                elif ev.kind == DISK_SLOW:
                    drive.set_slow(float(ev.factor) if edge == "start" else 1.0)
            if tracer.enabled:
                name = f"fault.{ev.kind}" if edge == "start" else f"fault.{ev.kind}:end"
                tracer.instant(name, "fault", env.now, track="fault", args=ev.describe())
                if edge == "start":
                    tracer.count(f"fault.events:{ev.kind}")

        def pump():
            for t, _, edge, ev in actions:
                if t > env.now:
                    yield env.timeout(t - env.now)
                apply(edge, ev)

        return env.process(pump(), name="fault-injector")


def surviving_blocks(injector: Optional[FaultInjector], record) -> int:
    """Blocks of ``record`` on disks that are not permanently failed."""
    total = 0
    for idx, disk_id in enumerate(record.disk_ids):
        if injector is not None and injector.permanently_failed(int(disk_id)):
            continue
        total += len(record.placement[idx])
    return total
