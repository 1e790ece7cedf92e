"""The repair ledger: every byte a rebuild moves, accounted once.

Rashmi et al.'s warehouse-cluster study frames repair economics in three
currencies — bytes crossing the network per failure, disks dragged into
each rebuild, and the latency tax on foreground reads while redundancy is
below target.  :class:`RepairLedger` keeps all three: repair passes
append a :class:`RepairEvent`, and the access core's repair-annotation
site notes every degraded read against the same account.  The ledger is
pure bookkeeping — it never influences simulated timing, so an installed
but unconsulted ledger leaves every golden bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RepairEvent:
    """One rebuild pass: the bytes it moved, the disks it touched, its time."""

    file_name: str
    #: Coding algorithm that performed the rebuild (``lt``,
    #: ``reed-solomon``, ``regenerating-msr``, ``regenerating-mbr``).
    algorithm: str
    #: Bytes read from helper disks over the network.
    bytes_read_helpers: int
    #: Bytes written to the replacement locations.
    bytes_written: int
    #: Distinct disks that served helper reads or absorbed writes.
    disks_touched: int
    #: Coded blocks destroyed by the failure / recreated by the pass.
    blocks_lost: int
    blocks_rebuilt: int
    #: Coded block size of the repaired file (prices ``blocks_lost``).
    block_bytes: int
    #: Simulated seconds of the helper-read and replacement-write phases.
    read_s: float
    write_s: float

    @property
    def wall_time_s(self) -> float:
        return self.read_s + self.write_s

    @property
    def complete(self) -> bool:
        return self.blocks_rebuilt >= self.blocks_lost

    @property
    def bytes_moved(self) -> int:
        return self.bytes_read_helpers + self.bytes_written


@dataclass
class RepairLedger:
    """Append-only account of rebuild traffic and degraded reads."""

    events: list[RepairEvent] = field(default_factory=list)
    #: Foreground reads settled while surviving redundancy sat below the
    #: repair floor, and their summed latency.
    degraded_reads: int = 0
    degraded_read_s: float = 0.0

    def record(self, event: RepairEvent) -> None:
        self.events.append(event)

    def note_degraded_read(self, latency_s: float, surviving_redundancy: float) -> None:
        self.degraded_reads += 1
        if latency_s == latency_s and latency_s != float("inf"):  # finite
            self.degraded_read_s += latency_s

    # -- aggregates -----------------------------------------------------------
    @property
    def repairs(self) -> int:
        return len(self.events)

    @property
    def bytes_read_helpers(self) -> int:
        return sum(e.bytes_read_helpers for e in self.events)

    @property
    def bytes_written(self) -> int:
        return sum(e.bytes_written for e in self.events)

    @property
    def bytes_moved(self) -> int:
        return self.bytes_read_helpers + self.bytes_written

    @property
    def blocks_lost(self) -> int:
        return sum(e.blocks_lost for e in self.events)

    @property
    def wall_time_s(self) -> float:
        return sum(e.wall_time_s for e in self.events)

    def summary(self) -> dict:
        """Aggregate view for experiment rows and traces."""
        lost = self.blocks_lost
        return {
            "repairs": self.repairs,
            "bytes_read_helpers": self.bytes_read_helpers,
            "bytes_written": self.bytes_written,
            "bytes_moved": self.bytes_moved,
            "blocks_lost": lost,
            "disks_touched": sum(e.disks_touched for e in self.events),
            "wall_time_s": self.wall_time_s,
            "degraded_reads": self.degraded_reads,
            "degraded_read_s": self.degraded_read_s,
            #: MB read from helpers per MB of data the failures destroyed —
            #: the Dimakis repair-bandwidth ratio (1.0 is the MBR floor for
            #: exact repair of what was stored).  All events of one run
            #: share the file's block size.
            "read_amplification": (
                self.bytes_read_helpers / lost / self.events[0].block_bytes
                if lost else 0.0
            ),
        }
