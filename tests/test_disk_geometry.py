"""Tests for disk geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.geometry import SECTOR_BYTES, DiskGeometry, Zone, default_geometry
from tests._drive_ref import NumpyZoneMap


def small_geometry():
    return DiskGeometry(
        [Zone(0, 9, 100), Zone(10, 19, 50)],
        heads=2,
    )


def test_total_sectors():
    g = small_geometry()
    assert g.total_sectors == 10 * 2 * 100 + 10 * 2 * 50
    assert g.capacity_bytes == g.total_sectors * SECTOR_BYTES


def test_zone_tiling_enforced():
    with pytest.raises(ValueError):
        DiskGeometry([Zone(0, 9, 100), Zone(11, 19, 50)])
    with pytest.raises(ValueError):
        DiskGeometry([])
    with pytest.raises(ValueError):
        DiskGeometry([Zone(0, 9, 0)])
    with pytest.raises(ValueError):
        DiskGeometry([Zone(0, 9, 10)], heads=0)


def test_locate_first_and_boundary():
    g = small_geometry()
    assert g.locate(0) == (0, 0, 0)
    assert g.locate(99) == (0, 0, 99)
    assert g.locate(100) == (0, 1, 0)  # next head
    assert g.locate(200) == (1, 0, 0)  # next cylinder
    # First LBA of zone 1:
    first_z1 = 10 * 2 * 100
    assert g.locate(first_z1) == (10, 0, 0)


def test_cylinder_of_lba_vectorised():
    g = small_geometry()
    lbas = [0, 199, 200, 2000, g.total_sectors - 1]
    assert [g.cylinder_of_lba(lba) for lba in lbas] == [0, 0, 1, 10, 19]


@st.composite
def zonings(draw):
    """1-8 zones of 1-6 cylinders each, 1-4 heads."""
    n = draw(st.integers(1, 8))
    zones, lo = [], 0
    for _ in range(n):
        cyls = draw(st.integers(1, 6))
        zones.append(Zone(lo, lo + cyls - 1, draw(st.integers(1, 40))))
        lo += cyls
    return DiskGeometry(zones, heads=draw(st.integers(1, 4)))


@settings(deadline=None, max_examples=150)
@given(g=zonings())
def test_scalar_lookups_match_the_array_formula(g):
    """Every zone start +-1, 0 and the last LBA map as numpy's searchsorted
    formula maps them; the answers are Python ints."""
    ref = NumpyZoneMap(g)
    assert g.total_sectors == ref.total_sectors
    starts = ref._zone_sector_starts[:-1].tolist()
    lbas = {0, g.total_sectors - 1}
    lbas.update(lba + d for lba in starts for d in (-1, 0, 1))
    for lba in sorted(x for x in lbas if 0 <= x < g.total_sectors):
        for name in ("zone_index_of_lba", "cylinder_of_lba", "spt_of_lba"):
            got = getattr(g, name)(lba)
            assert type(got) is int, (name, lba)
            assert got == int(getattr(ref, name)(lba)), (name, lba)
    for name in ("zone_index_of_lba", "cylinder_of_lba", "spt_of_lba"):
        for lba in (-1, g.total_sectors):
            with pytest.raises(ValueError):
                getattr(g, name)(lba)


def test_lba_out_of_range():
    g = small_geometry()
    with pytest.raises(ValueError):
        g.zone_index_of_lba(g.total_sectors)
    with pytest.raises(ValueError):
        g.zone_index_of_lba(-1)


def test_spt_lookup():
    g = small_geometry()
    assert int(g.spt_of_lba(0)) == 100
    assert int(g.spt_of_lba(g.total_sectors - 1)) == 50
    assert g.spt_at_cylinder(5) == 100
    assert g.spt_at_cylinder(15) == 50
    with pytest.raises(ValueError):
        g.spt_at_cylinder(99)


def test_track_crossings():
    g = small_geometry()
    assert g.track_crossings(0, 100) == 0  # exactly one track
    assert g.track_crossings(0, 101) == 1
    assert g.track_crossings(50, 100) == 1
    assert g.track_crossings(0, 0) == 0


def test_default_geometry_plausible():
    g = default_geometry()
    # ~110 GB class drive, outer zone faster than inner.
    assert 80e9 < g.capacity_bytes < 150e9
    assert g.zones[0].sectors_per_track > g.zones[-1].sectors_per_track
    assert g.cylinders == 60_000


def test_roundtrip_locate_consistency():
    g = default_geometry()
    rng = np.random.default_rng(0)
    for lba in rng.integers(0, g.total_sectors, 50):
        cyl, head, sector = g.locate(int(lba))
        assert 0 <= cyl < g.cylinders
        assert 0 <= head < g.heads
        assert 0 <= sector < g.spt_at_cylinder(cyl)
        assert int(g.cylinder_of_lba(int(lba))) == cyl
