"""Tests for layout planning and disk selection."""

import pytest

from repro.accesscore.result import AccessConfig
from repro.cluster.server import Cluster
from repro.core import layout as L
from repro.core.base import SchemeBase
from repro.sim.rng import RngHub


class TestLayouts:
    def test_striped_round_robin(self):
        """RAID-0's stripe is rotated replication at D = 0."""
        p = L.rotated_replicas_fractional(8, 0.0, 4)
        assert p == [[0, 4], [1, 5], [2, 6], [3, 7]]

    def test_striped_uneven(self):
        p = L.rotated_replicas_fractional(5, 0.0, 4)
        assert [len(d) for d in p] == [2, 1, 1, 1]

    def test_rotated_replicas_figure_6_1d(self):
        """The 8-block, 2-replica, 4-disk example of Fig 6-1d."""
        p = L.rotated_replicas(8, 2, 4)
        # Disk 0: replica 0 of blocks {0,4}; replica 1 of blocks {3,7}.
        assert p[0] == [0, 4, 8 + 3, 8 + 7]
        # Every block has exactly 2 copies across distinct disks.
        flat = [b for disk in p for b in disk]
        assert sorted(flat) == list(range(16))

    def test_rotated_replica_disks_distinct(self):
        p = L.rotated_replicas(16, 4, 8)
        owner = {}
        for d, blocks in enumerate(p):
            for b in blocks:
                owner.setdefault(b % 16, set()).add(d)
        assert all(len(disks) == 4 for disks in owner.values())

    def test_coded_balanced(self):
        p = L.coded_balanced(10, 4)
        assert [len(d) for d in p] == [3, 3, 2, 2]
        assert sorted(b for disk in p for b in disk) == list(range(10))

    def test_validation(self):
        with pytest.raises(ValueError):
            L.rotated_replicas_fractional(4, 0.0, 0)
        with pytest.raises(ValueError):
            L.rotated_replicas(4, 0, 2)
        with pytest.raises(ValueError):
            L.coded_balanced(4, 0)


def selecting(n_disks, pool=128, seed=0):
    """A scheme that picks ``n_disks`` of a ``pool``-disk cluster."""
    return SchemeBase(Cluster(n_disks=pool), AccessConfig(n_disks=n_disks), RngHub(seed))


class TestScheduler:
    """Disk selection: ``SchemeBase.select_disks`` (§6.2.2)."""

    def test_selection_is_the_select_stream_draw(self):
        scheme = selecting(64, seed=3)
        for trial in range(4):
            rng = RngHub(3).fresh("select", scheme.name, trial)
            expected = rng.choice(128, 64, replace=False)
            assert scheme.select_disks(trial).tolist() == expected.tolist()

    def test_random_selection_distinct_and_in_range(self):
        sel = selecting(64).select_disks(0)
        assert len(set(sel.tolist())) == 64
        assert sel.min() >= 0 and sel.max() < 128

    def test_selection_validation(self):
        with pytest.raises(ValueError):
            selecting(17, pool=16)
        with pytest.raises(ValueError):
            selecting(0, pool=16)

    def test_random_selection_varies(self):
        scheme = selecting(8)
        assert scheme.select_disks(0).tolist() != scheme.select_disks(1).tolist()


class TestFractionalReplication:
    def test_integer_redundancy_matches_full(self):
        assert L.rotated_replicas_fractional(8, 1.0, 4) == L.rotated_replicas(8, 2, 4)

    def test_half_round_adds_partial_copies(self):
        p = L.rotated_replicas_fractional(8, 0.5, 4)
        total = sum(len(d) for d in p)
        assert total == 8 + 4  # one full copy + half a round

    def test_partial_ids_map_to_low_blocks(self):
        k = 8
        p = L.rotated_replicas_fractional(k, 1.5, 4)
        partial_ids = [b for d in p for b in d if b >= 2 * k]
        assert sorted(b % k for b in partial_ids) == [0, 1, 2, 3]

    def test_zero_redundancy_is_striping_rotation(self):
        p = L.rotated_replicas_fractional(8, 0.0, 4)
        assert sum(len(d) for d in p) == 8

    def test_negative_rejected(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            L.rotated_replicas_fractional(8, -0.1, 4)
