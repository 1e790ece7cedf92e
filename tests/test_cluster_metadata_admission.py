"""Tests for the metadata server and admission control."""

import pytest

from repro.cluster.admission import (
    AdmissionController,
    CapacityAdmission,
    Flow,
    PriorityAdmission,
    effective_disk_share,
    pick_admitted_server,
)
from repro.cluster.metadata import FileLockedError, FileRecord, MetadataServer


class TestMetadata:
    def test_open_missing_file_for_read_raises(self):
        md = MetadataServer()
        with pytest.raises(KeyError):
            md.open("nope", "r")

    def test_write_then_read_roundtrip(self):
        md = MetadataServer()
        rec, lat = md.open("f", "w")
        assert rec is None and lat == md.latency_s
        md.commit(FileRecord("f", 100, "robustore", disk_ids=[1, 2], placement=[[0], [1]]))
        md.close("f")
        rec, _ = md.open("f", "r")
        assert rec.total_blocks == 2
        assert rec.disk_ids == [1, 2]

    def test_write_lock_excludes_everyone(self):
        md = MetadataServer()
        md.open("f", "w")
        with pytest.raises(FileLockedError):
            md.open("f", "w")
        with pytest.raises(FileLockedError):
            md.open("f", "r")
        md.close("f")
        md.commit(FileRecord("f", 1, "raid0"))
        md.open("f", "r")  # fine after release

    def test_read_lock_allows_readers_blocks_writer(self):
        md = MetadataServer()
        md.commit(FileRecord("f", 1, "raid0"))
        md.open("f", "r")
        md.open("f", "r")  # shared
        with pytest.raises(FileLockedError):
            md.open("f", "w")

    def test_invalid_mode(self):
        md = MetadataServer()
        with pytest.raises(ValueError):
            md.open("f", "rw")

    def test_access_counter_and_latency(self):
        md = MetadataServer(latency_s=0.007)
        md.open("f", "w")
        md.commit(FileRecord("f", 1, "raid0"))
        md.close("f")
        assert md.accesses == 3
        assert md.latency_s == 0.007

    def test_update_placement(self):
        md = MetadataServer()
        md.commit(FileRecord("f", 1, "robustore", placement=[[0]]))
        md.update_placement("f", [[0, 1]])
        assert md.lookup("f").placement == [[0, 1]]


class TestAdmission:
    def test_base_admits_everything(self):
        ac = AdmissionController()
        for _ in range(100):
            assert ac.request(Flow(nbytes=1))
        assert ac.refused == 0

    def test_capacity_refuses_when_full(self):
        ac = CapacityAdmission(capacity=2)
        f1, f2, f3 = Flow(1), Flow(1), Flow(1)
        assert ac.request(f1) and ac.request(f2)
        assert not ac.request(f3)
        assert ac.refused == 1
        ac.release(f1)
        assert ac.request(f3)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CapacityAdmission(capacity=0)

    def test_priority_preempts_lower(self):
        ac = PriorityAdmission(capacity=1)
        low = Flow(1, priority=5)
        high = Flow(1, priority=1)
        assert ac.request(low)
        assert ac.request(high)  # preempts
        assert low.flow_id in ac.preempted
        assert ac.active_flows == 1

    def test_priority_equal_is_refused(self):
        ac = PriorityAdmission(capacity=1)
        assert ac.request(Flow(1, priority=2))
        assert not ac.request(Flow(1, priority=2))
        assert ac.refused == 1

    def test_effective_disk_share_decreasing(self):
        shares = [effective_disk_share(n) for n in range(1, 6)]
        assert shares[0] == 1.0
        assert all(b < a for a, b in zip(shares, shares[1:]))
        with pytest.raises(ValueError):
            effective_disk_share(0)

    def test_pick_admitted_server_prefers_then_falls_back(self):
        ctrls = [CapacityAdmission(1), CapacityAdmission(1)]
        assert pick_admitted_server(ctrls, Flow(1), preferred=1) == 1
        assert pick_admitted_server(ctrls, Flow(1), preferred=1) == 0
        assert pick_admitted_server(ctrls, Flow(1), preferred=1) is None
