"""Deterministic mid-operation fault injection (the robustness test rig).

The paper's headline claim is *robustness*: low-variance bandwidth when
disks misbehave.  The rest of the simulator draws disk state once per
trial, before an access starts; this package makes faults *temporal* —
disks fail, slow down and recover, filers crash and restart, and links
degrade at scheduled points on the simulated clock, in the middle of an
access.

Three layers:

* :class:`repro.faults.plan.FaultPlan` — a validated, time-sorted list of
  :class:`repro.faults.plan.FaultEvent`, built from a declarative scenario
  spec (:meth:`FaultPlan.from_scenario`) or sampled from a seeded
  :class:`repro.faults.model.FaultModel` (per-disk MTTF/MTTR-style
  distributions).
* :class:`repro.faults.timeline.DiskTimeline` /
  :class:`repro.faults.timeline.LinkTimeline` — the plan compiled per
  target into piecewise service-capacity and latency profiles that the
  vectorised service model (:class:`repro.disk.service.BlockService`) and
  the access machinery apply in closed form.
* :class:`repro.faults.inject.FaultInjector` — the live object a
  :class:`repro.cluster.server.Cluster` carries
  (``cluster.install_faults(plan)``); schemes, the disk service and the
  network path consult it, the event-driven
  :class:`repro.disk.drive.DiskDrive` reacts to it through
  :meth:`FaultInjector.schedule_on`, and fault events appear in
  ``repro.obs`` traces.

Determinism contract: a plan is pure data; installing a plan with no
events leaves every simulated quantity bit-identical to a plain run, and
equal (plan, seed) pairs always reproduce the same results.  See
``docs/fault_injection.md``.
"""

from repro.faults.inject import FaultInjector
from repro.faults.model import FaultModel
from repro.faults.plan import (
    DISK_FAIL,
    DISK_RECOVER,
    DISK_SLOW,
    FILER_CRASH,
    LINK_DEGRADE,
    FaultEvent,
    FaultPlan,
)
from repro.faults.timeline import DiskTimeline, LinkTimeline

__all__ = [
    "DISK_FAIL",
    "DISK_RECOVER",
    "DISK_SLOW",
    "FILER_CRASH",
    "LINK_DEGRADE",
    "DiskTimeline",
    "FaultEvent",
    "FaultInjector",
    "FaultModel",
    "FaultPlan",
    "LinkTimeline",
]
