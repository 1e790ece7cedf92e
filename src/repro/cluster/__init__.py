"""Storage cluster: filers, filesystem caches, metadata, admission control.

Mirrors the simulator architecture of §6.2.2: 16 virtual filers each fronting
8 virtual disks with a shared 2 GB filesystem cache, and a metadata service
the client consults on open/close (5 ms per access).  The admission
controllers of §5.4 are standalone: the experiments that study them build
their own.
"""

from repro.cluster.admission import (
    AdmissionController,
    CapacityAdmission,
    PriorityAdmission,
)
from repro.cluster.filer import Filer
from repro.cluster.fscache import SetAssociativeCache
from repro.cluster.metadata import FileRecord, MetadataServer

__all__ = [
    "AdmissionController",
    "CapacityAdmission",
    "FileRecord",
    "Filer",
    "MetadataServer",
    "PriorityAdmission",
    "SetAssociativeCache",
]
