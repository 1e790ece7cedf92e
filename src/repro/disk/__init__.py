"""DiskSim-like block-level hard-drive model (§2.1.1, §6.2.2 "Virtual Disk").

The drive model captures the behaviours the dissertation's experiments
depend on: zoned geometry with cylinder-dependent transfer rates, a seek
curve, rotational latency, per-request controller overhead, track switches,
a fair-share request queue with cancellation, and competitive background
workloads.

Two complementary interfaces:

* :class:`repro.disk.service.BlockService` — a vectorised per-access block
  service model, used by the storage-scheme simulations and by the
  Table 6-1 calibration (:mod:`repro.disk.calibration`).
* :class:`repro.disk.drive.DiskDrive` — an event-driven drive entity with a
  request queue.  The event engine (:mod:`repro.accesscore.events`) times
  its requests with the block-service sampler; its sector-level timing is
  the reference the block-service model is cross-validated against.
"""

from repro.disk.drive import DiskDrive, DiskRequest
from repro.disk.geometry import DiskGeometry, Zone, default_geometry
from repro.disk.mechanics import DiskMechanics, DriveSpec
from repro.disk.service import BackgroundLoad, BlockService
from repro.disk.workload import InDiskLayout, draw_layout

__all__ = [
    "BackgroundLoad",
    "BlockService",
    "DiskDrive",
    "DiskGeometry",
    "DiskMechanics",
    "DiskRequest",
    "DriveSpec",
    "InDiskLayout",
    "Zone",
    "default_geometry",
    "draw_layout",
]
