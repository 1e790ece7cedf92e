"""Zoned disk geometry: cylinders, heads, tracks, sectors, LBA mapping.

Modern drives record more sectors on outer tracks (zoned bit recording,
§2.1.1); the resulting ~2x media-rate spread between outer and inner zones
is one of the performance-variation sources the experiments exercise.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

SECTOR_BYTES = 512


@dataclass(frozen=True)
class Zone:
    """A contiguous range of cylinders sharing one track format.

    Attributes
    ----------
    cyl_lo, cyl_hi:
        Inclusive cylinder range.
    sectors_per_track:
        Track capacity inside this zone.
    """

    cyl_lo: int
    cyl_hi: int
    sectors_per_track: int

    @property
    def cylinders(self) -> int:
        return self.cyl_hi - self.cyl_lo + 1


class DiskGeometry:
    """Maps logical block addresses to physical positions.

    Parameters
    ----------
    zones:
        Zones ordered outer (fastest) to inner, covering 0..C-1 contiguously.
    heads:
        Number of recording surfaces (tracks per cylinder).
    """

    def __init__(self, zones: list[Zone], heads: int = 4) -> None:
        if heads < 1:
            raise ValueError("heads must be >= 1")
        if not zones:
            raise ValueError("at least one zone required")
        expect = 0
        for z in zones:
            if z.cyl_lo != expect:
                raise ValueError(f"zones must tile cylinders; gap at {expect}")
            if z.sectors_per_track < 1:
                raise ValueError("sectors_per_track must be >= 1")
            expect = z.cyl_hi + 1
        self.zones = list(zones)
        self.heads = heads
        self.cylinders = expect
        # Cumulative sector count at the start of each zone, as Python
        # ints: the drive maps one LBA per request, and a bisect over a
        # list costs a fraction of one numpy call.
        starts = [0]
        for z in zones:
            starts.append(starts[-1] + z.cylinders * heads * z.sectors_per_track)
        self._zone_sector_starts = starts

    @property
    def total_sectors(self) -> int:
        return self._zone_sector_starts[-1]

    @property
    def capacity_bytes(self) -> int:
        return self.total_sectors * SECTOR_BYTES

    def zone_index_of_lba(self, lba: int) -> int:
        """Index of the zone holding ``lba``."""
        if not 0 <= lba < self._zone_sector_starts[-1]:
            raise ValueError("LBA out of range")
        return bisect_right(self._zone_sector_starts, lba) - 1

    def cylinder_of_lba(self, lba: int) -> int:
        """Cylinder holding ``lba``."""
        zi = self.zone_index_of_lba(lba)
        z = self.zones[zi]
        off = lba - self._zone_sector_starts[zi]
        return z.cyl_lo + off // (self.heads * z.sectors_per_track)

    def spt_of_lba(self, lba: int) -> int:
        """Sectors-per-track of the zone holding ``lba``."""
        return self.zones[self.zone_index_of_lba(lba)].sectors_per_track

    def spt_at_cylinder(self, cylinder: int) -> int:
        for z in self.zones:
            if z.cyl_lo <= cylinder <= z.cyl_hi:
                return z.sectors_per_track
        raise ValueError(f"cylinder {cylinder} out of range")

    def locate(self, lba: int) -> tuple[int, int, int]:
        """Return (cylinder, head, sector-in-track) for a single LBA."""
        lba = int(lba)
        zi = self.zone_index_of_lba(lba)
        z = self.zones[zi]
        off = lba - self._zone_sector_starts[zi]
        per_cyl = self.heads * z.sectors_per_track
        cyl = z.cyl_lo + off // per_cyl
        rem = off % per_cyl
        head = rem // z.sectors_per_track
        sector = rem % z.sectors_per_track
        return cyl, head, sector

    def track_crossings(self, lba: int, sectors: int) -> int:
        """Number of track boundaries crossed by a contiguous transfer."""
        if sectors <= 0:
            return 0
        zi = self.zone_index_of_lba(lba)
        spt = self.zones[zi].sectors_per_track
        off = lba - self._zone_sector_starts[zi]
        first = off // spt
        last = (off + sectors - 1) // spt
        return int(last - first)


def default_geometry() -> DiskGeometry:
    """~110 GB, 7200 rpm class geometry (IBM Deskstar 7K400 era, §6.2.5).

    Eight zones, 60 000 cylinders, 4 heads, sectors per track falling from
    1200 (outer) to 620 (inner): a ~1.9x media-rate spread.
    """
    spts = [1200, 1110, 1030, 950, 870, 790, 705, 620]
    per_zone = 60_000 // len(spts)
    zones = []
    lo = 0
    for spt in spts:
        zones.append(Zone(lo, lo + per_zone - 1, spt))
        lo += per_zone
    return DiskGeometry(zones, heads=4)
