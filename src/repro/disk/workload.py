"""Synthetic workload generation (§6.2.5).

The in-disk data layout of each access is modelled with two parameters, as
in DiskSim: the **blocking factor** (average sectors per physical request)
and the **probability of sequential access** (a sequential request starts at
the address following the previous one and skips head positioning).  Per
§6.2.5 every disk draws a blocking factor from {8, 16, ..., 1024} and a
sequential probability from {0, 1}, producing the ~100-fold bandwidth spread
of Table 6-1.

Background (competitive) workloads are sequences of mid-size requests
(~50 sectors) arriving at a fixed interval; §6.2.5 varies the interval from
6 ms (≈93 % disk utilisation) to 200 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: Blocking factors explored by Table 6-1.
BLOCKING_FACTORS = (8, 16, 32, 64, 128, 256, 512, 1024)

#: Mean background request size (sectors), §6.2.5.
BACKGROUND_SECTORS = 50

#: Background LBAs drawn per numpy call (:meth:`BackgroundWorkload.next_lba`).
LBA_CHUNK = 32


@dataclass(frozen=True)
class InDiskLayout:
    """Random in-disk layout configuration of one disk.

    Attributes
    ----------
    blocking_factor:
        Sectors per contiguous physical request.
    p_sequential:
        Probability that a request continues sequentially from the previous
        one (0 or 1 in the dissertation's experiments).
    """

    blocking_factor: int
    p_sequential: float

    def __post_init__(self) -> None:
        if self.blocking_factor < 1:
            raise ValueError("blocking_factor must be >= 1")
        if not 0.0 <= self.p_sequential <= 1.0:
            raise ValueError("p_sequential must be in [0, 1]")


#: The 16 possible heterogeneous layouts, keyed by their two draw indices.
#: :class:`InDiskLayout` is frozen, so sharing instances is safe, and the
#: memo spares a dataclass construction + validation per disk per trial.
_LAYOUTS = {
    (i, j): InDiskLayout(bf, float(j))
    for i, bf in enumerate(BLOCKING_FACTORS)
    for j in (0, 1)
}


def layout_at(bf_index: int, seq_index: int) -> InDiskLayout:
    """The memoised layout for the two draw indices.

    Used by batched redraws that pull many ``(bf, seq)`` index pairs from
    one broadcast ``rng.integers`` call and map them here.
    """
    return _LAYOUTS[bf_index, seq_index]


def draw_layout(rng: np.random.Generator) -> InDiskLayout:
    """Draw a heterogeneous-layout configuration (§6.2.5).

    ``BLOCKING_FACTORS[rng.integers(0, 8)]`` consumes the exact bit
    stream ``rng.choice(BLOCKING_FACTORS)`` does (choice defers to the
    same bounded-integer draw), so this stays bit-identical to the seed
    while skipping choice's per-call array setup.
    """
    return _LAYOUTS[int(rng.integers(0, 8)), int(rng.integers(0, 2))]


def homogeneous_layout(
    blocking_factor: int = 256, p_sequential: float = 1.0
) -> InDiskLayout:
    """The fixed layout used by the homogeneous-environment experiments."""
    return InDiskLayout(blocking_factor, p_sequential)


@dataclass(frozen=True)
class AccessPattern:
    """One physical request of a synthetic stream."""

    lba: int
    sectors: int
    sequential: bool


class SyntheticWorkload:
    """Generate the physical request stream for reading ``total_sectors``.

    Requests are ``blocking_factor`` sectors each; each is sequential to its
    predecessor with probability ``p_sequential``, otherwise it lands at a
    random position in the file's extent.

    Parameters
    ----------
    layout:
        Blocking factor and sequential probability.
    extent_start, extent_sectors:
        The allocated LBA range the data scatters within.
    """

    def __init__(
        self,
        layout: InDiskLayout,
        extent_start: int,
        extent_sectors: int,
        rng: np.random.Generator,
    ) -> None:
        if extent_sectors < layout.blocking_factor:
            raise ValueError("extent smaller than one request")
        self.layout = layout
        self.extent_start = extent_start
        self.extent_sectors = extent_sectors
        self.rng = rng
        self._last_end: int | None = None

    def requests(self, total_sectors: int) -> Iterator[AccessPattern]:
        """Yield the request stream covering ``total_sectors``."""
        bf = self.layout.blocking_factor
        remaining = total_sectors
        while remaining > 0:
            size = min(bf, remaining)
            seq = (
                self._last_end is not None
                and self.rng.random() < self.layout.p_sequential
                and self._last_end + size <= self.extent_start + self.extent_sectors
            )
            if seq:
                lba = self._last_end
            else:
                hi = self.extent_sectors - size
                lba = self.extent_start + int(self.rng.integers(0, hi + 1))
            self._last_end = lba + size
            remaining -= size
            yield AccessPattern(lba=lba, sectors=size, sequential=bool(seq))


class BackgroundWorkload:
    """Competitive background request stream for one disk.

    Parameters
    ----------
    interval_s:
        Fixed inter-arrival time; ``None`` or ``inf`` disables the stream.
    sectors:
        Request size (sectors); defaults to the dissertation's ~50.
    extent_sectors:
        Range the random background accesses scatter within.
    """

    def __init__(
        self,
        interval_s: float | None,
        rng: np.random.Generator,
        sectors: int = BACKGROUND_SECTORS,
        extent_start: int = 0,
        extent_sectors: int = 1 << 24,
    ) -> None:
        if interval_s is not None and interval_s <= 0:
            raise ValueError("interval must be positive")
        self.interval_s = interval_s
        self.sectors = sectors
        self.extent_start = extent_start
        self.extent_sectors = extent_sectors
        self.rng = rng
        self._lbas = np.empty(0, dtype=np.int64)
        self._next = 0

    @property
    def enabled(self) -> bool:
        return self.interval_s is not None and np.isfinite(self.interval_s)

    def next_lba(self) -> int:
        """The next request's start, uniform over the extent.

        The draws come ``LBA_CHUNK`` at a time from one ``integers(size=n)``
        call, which yields the values, and leaves the generator in the
        state, that ``n`` scalar ``integers`` calls would.  The stream's
        only other draw is its phase, taken before the first LBA, so the
        chunk size moves no value.
        """
        i = self._next
        if i == len(self._lbas):
            hi = self.extent_sectors - self.sectors
            self._lbas = self.extent_start + self.rng.integers(0, hi + 1, size=LBA_CHUNK)
            i = 0
        self._next = i + 1
        return int(self._lbas[i])
