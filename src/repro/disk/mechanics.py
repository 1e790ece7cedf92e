"""Drive mechanics: seek curve, rotation, media transfer, overheads.

All times are in **seconds**.  The default :class:`DriveSpec` is calibrated
so that the synthetic-workload bandwidth grid approximates Table 6-1 of the
dissertation (0.5 ... 53 MB/s across blocking factors 8..1024 and
sequential-access probability 0/1, mean ~15 MB/s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.disk.geometry import SECTOR_BYTES, DiskGeometry, default_geometry


@dataclass(frozen=True)
class DriveSpec:
    """Mechanical and controller parameters of a drive model.

    Attributes
    ----------
    rpm:
        Spindle speed.
    seek_base_s, seek_sqrt_s, seek_linear_s:
        Seek curve ``base + sqrt_coeff*sqrt(d) + linear_coeff*d`` for a
        d-cylinder move (0 for d = 0) — the standard concave model of
        Ruemmler & Wilkes.
    head_switch_s:
        Time to activate another head within a cylinder.
    track_switch_s:
        Time charged per track boundary crossed during a transfer.
    controller_overhead_s:
        Fixed command-processing cost per request.
    locality_span_cylinders:
        Span of the extent within which a file's random in-disk layout
        scatters its sectors (random seeks are local to the allocation,
        not full-stroke).
    """

    rpm: float = 7200.0
    seek_base_s: float = 0.0006
    seek_sqrt_s: float = 0.000050
    seek_linear_s: float = 0.0000001
    head_switch_s: float = 0.0008
    track_switch_s: float = 0.0009
    controller_overhead_s: float = 0.0010
    locality_span_cylinders: int = 2000

    @property
    def rotation_period_s(self) -> float:
        return 60.0 / self.rpm

    @property
    def avg_rotational_latency_s(self) -> float:
        return 0.5 * self.rotation_period_s


class DiskMechanics:
    """Computes service-time components from a :class:`DriveSpec`.

    Parameters
    ----------
    spec:
        Drive parameters.
    geometry:
        Zoned geometry (defaults to :func:`default_geometry`).
    """

    def __init__(
        self, spec: DriveSpec | None = None, geometry: DiskGeometry | None = None
    ) -> None:
        self.spec = spec or DriveSpec()
        self.geometry = geometry or default_geometry()
        self._mean_pos: float | None = None
        # (sectors, spt) -> transfer time.  Deterministic in the spec, and
        # the per-access service models re-derive it for the same handful
        # of block-size/zone combinations all sweep long.
        self._xfer_cache: dict[tuple[int, int], float] = {}
        # seek_table[d]: the local seek time of a d-cylinder move, for
        # every distance a draw can take (index 0 is never drawn).  Built
        # with the per-draw expression's operations in its order, on the
        # same float64 operands, so a lookup equals the arithmetic bit for
        # bit (tests/test_rng_batch.py checks every distance).
        s = self.spec
        d = np.arange(s.locality_span_cylinders + 1)
        table = np.sqrt(d)
        table *= s.seek_sqrt_s
        table += s.seek_base_s
        table += s.seek_linear_s * d
        self.seek_table = table

    # -- seek ------------------------------------------------------------
    def seek_time(self, distance) -> np.ndarray:
        """Seek time for cylinder distance(s); 0 for distance 0."""
        d = np.asarray(distance, dtype=np.float64)
        s = self.spec
        t = s.seek_base_s + s.seek_sqrt_s * np.sqrt(d) + s.seek_linear_s * d
        return np.where(d <= 0, 0.0, t)

    def sample_local_seek(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Seek times for random moves within a file's local extent.

        One bounded draw per move, looked up in :attr:`seek_table`: the
        :meth:`seek_time` curve without its ``d <= 0`` guard (a draw is
        always >= 1 cylinder).  A scalar draw consumes the bit stream as a
        size-1 draw does, so ``n == 1`` takes the cheaper scalar call.
        """
        hi = self.spec.locality_span_cylinders + 1
        if n == 1:
            return self.seek_table[[rng.integers(1, hi)]]
        return self.seek_table[rng.integers(1, hi, size=n)]

    def sample_rotational_latency(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Uniform(0, one revolution) rotational delays."""
        if n == 1:
            # Scalar draw == size-1 draw, bit for bit (one next_double).
            return np.array([rng.random() * self.spec.rotation_period_s])
        t = rng.random(n)
        t *= self.spec.rotation_period_s
        return t

    def mean_positioning_time(self) -> float:
        """Expected seek + rotational latency for a local random access.

        Deterministic in the spec, so computed once — callers hit this on
        every background-interleaved queue, and the exact mean folds a
        ``locality_span``-element seek curve.
        """
        if self._mean_pos is None:
            span = self.spec.locality_span_cylinders
            d = np.arange(1, span + 1, dtype=np.float64)
            self._mean_pos = float(
                self.seek_time(d).mean() + self.spec.avg_rotational_latency_s
            )
        return self._mean_pos

    # -- transfer ----------------------------------------------------------
    def media_rate_bps(self, sectors_per_track) -> np.ndarray:
        """Sustained media transfer rate (bytes/s) for given track formats."""
        spt = np.asarray(sectors_per_track, dtype=np.float64)
        return spt * SECTOR_BYTES / self.spec.rotation_period_s

    def transfer_time(self, sectors, sectors_per_track) -> np.ndarray:
        """Pure media transfer time for ``sectors`` at the given format,
        including track-switch charges for crossed boundaries.

        Scalar int calls (the per-access service models) are memoised;
        the cached value is the float64 scalar the array arithmetic
        produces, so both paths agree bit-for-bit.
        """
        if type(sectors) is int and type(sectors_per_track) is int:
            key = (sectors, sectors_per_track)
            t = self._xfer_cache.get(key)
            if t is None:
                t = self._xfer_cache[key] = float(
                    self._transfer_time_arr(sectors, sectors_per_track)
                )
            return t
        return self._transfer_time_arr(sectors, sectors_per_track)

    def _transfer_time_arr(self, sectors, sectors_per_track) -> np.ndarray:
        sectors = np.asarray(sectors, dtype=np.float64)
        spt = np.asarray(sectors_per_track, dtype=np.float64)
        xfer = sectors * SECTOR_BYTES / self.media_rate_bps(spt)
        switches = np.floor_divide(np.maximum(sectors - 1, 0), spt)
        return xfer + switches * self.spec.track_switch_s

    # -- whole requests -----------------------------------------------------
    def request_time(
        self,
        sectors: int,
        sectors_per_track: int,
        positioned: bool,
        rng: np.random.Generator,
    ) -> float:
        """Service time for one request.

        ``positioned`` requests continue sequentially from the previous one
        and pay no seek or rotational latency.
        """
        t = self.spec.controller_overhead_s
        if not positioned:
            t += float(self.sample_local_seek(rng, 1)[0])
            t += float(self.sample_rotational_latency(rng, 1)[0])
        t += float(self.transfer_time(sectors, sectors_per_track))
        return t

    def expected_bandwidth(
        self, blocking_factor: int, p_sequential: float, sectors_per_track: int
    ) -> float:
        """Closed-form expected bandwidth (bytes/s) for a workload config.

        Used to sanity-check calibration against Table 6-1.
        """
        s = self.spec
        per_req = s.controller_overhead_s + float(
            self.transfer_time(blocking_factor, sectors_per_track)
        )
        per_req += (1.0 - p_sequential) * self.mean_positioning_time()
        return blocking_factor * SECTOR_BYTES / per_req
