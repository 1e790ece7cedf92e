"""Metadata service (§4.2): file records, layout registry, locks.

Clients consult the metadata server on open (data location, coding
algorithm and parameters, storage-server information) and report back on
close after writes.  Each metadata access costs a constant latency —
five milliseconds in the simulator (§6.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.tracer import NULL_TRACER

#: Constant latency per metadata-service access (§6.2.2).
METADATA_ACCESS_LATENCY_S = 0.005


@dataclass
class FileRecord:
    """Everything the metadata server knows about one file.

    Attributes
    ----------
    name:
        File name.
    size_bytes:
        Original (pre-coding) data size.
    scheme:
        Storage scheme that wrote the file (``raid0``, ``rraid-s``,
        ``rraid-a``, ``robustore``).
    coding:
        Coding algorithm descriptor (e.g. ``{"algorithm": "lt", "k": ...,
        "c": ..., "delta": ...}``).
    disk_ids:
        The disks holding the file's blocks.
    placement:
        ``placement[i]`` lists, in stored order, the coded-block ids on
        ``disk_ids[i]`` — speculative writes leave this unbalanced.
    owner:
        Principal that created the file.
    """

    name: str
    size_bytes: int
    scheme: str
    coding: dict = field(default_factory=dict)
    disk_ids: list[int] = field(default_factory=list)
    placement: list[list[int]] = field(default_factory=list)
    owner: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def total_blocks(self) -> int:
        return sum(len(p) for p in self.placement)


class FileLockedError(RuntimeError):
    """Raised when an open conflicts with an existing lock."""


class MetadataServer:
    """A (logically centralised) metadata server.

    Tracks file records and file locks.
    Every operation returns the constant access latency so callers can
    charge simulated time.
    """

    def __init__(
        self, latency_s: float = METADATA_ACCESS_LATENCY_S, tracer=None
    ) -> None:
        self.latency_s = latency_s
        self._files: dict[str, FileRecord] = {}
        self._locks: dict[str, tuple[str, str]] = {}  # name -> (mode, holder)
        self.accesses = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- file operations ----------------------------------------------------------
    def open(self, name: str, mode: str, holder: str = "client") -> tuple[Optional[FileRecord], float]:
        """Open a file; returns (record or None for a new file, latency).

        Write opens take an exclusive lock; read opens take a shared lock.

        Raises
        ------
        FileLockedError
            On a conflicting lock.
        KeyError
            Reading a file that does not exist.
        """
        if mode not in ("r", "w"):
            raise ValueError(f"mode must be 'r' or 'w', not {mode!r}")
        self.accesses += 1
        if self.tracer.enabled:
            self.tracer.count("meta.accesses")
        existing = self._locks.get(name)
        if existing is not None:
            held_mode, _ = existing
            if mode == "w" or held_mode == "w":
                if self.tracer.enabled:
                    self.tracer.count("meta.lock_conflicts")
                raise FileLockedError(f"{name}: locked {held_mode}")
        record = self._files.get(name)
        if mode == "r" and record is None:
            raise KeyError(f"no such file: {name}")
        if existing is None:
            self._locks[name] = (mode, holder)
        return record, self.latency_s

    def commit(self, record: FileRecord) -> float:
        """Register a written file's structure and location (§4.3.2)."""
        self.accesses += 1
        if self.tracer.enabled:
            self.tracer.count("meta.accesses")
        self._files[record.name] = record
        return self.latency_s

    def close(self, name: str, holder: str = "client") -> float:
        """Release the lock taken at open."""
        self.accesses += 1
        self._locks.pop(name, None)
        return self.latency_s

    def lookup(self, name: str) -> FileRecord:
        return self._files[name]

    def update_placement(self, name: str, placement: list[list[int]]) -> float:
        """Record new block placement after an update access (§4.3.4)."""
        self.accesses += 1
        self._files[name].placement = placement
        return self.latency_s
