"""The repair economy: ledger accounting, schedulers, metered rebuilds.

Unit coverage for :mod:`repro.rebuild` plus end-to-end passes through
:func:`repro.core.repair.maybe_repair` for each coding family — RS group
reconstruction and regenerating node repair restore redundancy and land
correctly-priced events on the ledger.
"""

import numpy as np
import pytest

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.cluster.server import Cluster
from repro.core.pipeline import scheme_class
from repro.core.repair import drain_repairs, maybe_repair
from repro.faults import FaultPlan
from repro.rebuild import (
    BatchedScheduler,
    EagerScheduler,
    LazyThresholdScheduler,
    RepairEvent,
    RepairLedger,
    RepairTask,
    scheduler_for,
)
from repro.sim.rng import RngHub

CFG = AccessConfig(data_bytes=32 * MB, block_bytes=1 * MB, n_disks=8, redundancy=3.0)


def _task(name="f", surv=2.0, dead=(1,)):
    return RepairTask(name, 0, tuple(dead), surv)


def _event(read=4, written=2, lost=2, rebuilt=None):
    return RepairEvent(
        file_name="f", algorithm="reed-solomon",
        bytes_read_helpers=read * MB, bytes_written=written * MB,
        disks_touched=5, blocks_lost=lost,
        blocks_rebuilt=lost if rebuilt is None else rebuilt,
        block_bytes=1 * MB, read_s=0.25, write_s=0.25,
    )


# ------------------------------------------------------------------- ledger


class TestLedger:
    def test_aggregates_sum_over_events(self):
        led = RepairLedger()
        led.record(_event(read=4, written=2, lost=2))
        led.record(_event(read=6, written=3, lost=3))
        assert led.repairs == 2
        assert led.bytes_read_helpers == 10 * MB
        assert led.bytes_written == 5 * MB
        assert led.bytes_moved == 15 * MB
        assert led.blocks_lost == 5
        assert led.wall_time_s == pytest.approx(1.0)

    def test_read_amplification_is_per_lost_mb(self):
        led = RepairLedger()
        led.record(_event(read=4, written=2, lost=2))
        # 4 MB read from helpers for 2 lost 1-MB blocks -> 2.0.
        assert led.summary()["read_amplification"] == pytest.approx(2.0)

    def test_read_amplification_when_nothing_was_rebuilt(self):
        # A failed pass writes nothing, so the block size cannot be
        # inferred from the writes; the ratio must still be per lost MB.
        led = RepairLedger()
        led.record(_event(read=4, written=0, lost=1, rebuilt=0))
        assert led.summary()["read_amplification"] == pytest.approx(4.0)

    def test_empty_ledger_summary(self):
        s = RepairLedger().summary()
        assert s["repairs"] == 0 and s["read_amplification"] == 0.0

    def test_degraded_reads_skip_infinite_latency(self):
        led = RepairLedger()
        led.note_degraded_read(0.25, 1.0)
        led.note_degraded_read(float("inf"), 0.5)
        assert led.degraded_reads == 2
        assert led.degraded_read_s == pytest.approx(0.25)

    def test_event_bytes_moved(self):
        assert _event(read=4, written=2).bytes_moved == 6 * MB


# --------------------------------------------------------------- schedulers


class TestSchedulers:
    def test_eager_releases_immediately(self):
        s = EagerScheduler()
        t = _task()
        assert s.offer(t) == [t]
        assert s.pending == ()

    def test_lazy_holds_until_floor_breach(self):
        s = LazyThresholdScheduler(floor=0.5)
        healthy = _task("a", surv=2.0)
        assert s.offer(healthy) == []
        assert s.pending == (healthy,)
        critical = _task("b", surv=0.1)
        # The breach drains the whole backlog, oldest first.
        assert s.offer(critical) == [healthy, critical]
        assert s.pending == ()

    def test_batched_drains_in_fixed_batches(self):
        s = BatchedScheduler(batch_size=3)
        tasks = [_task(str(i)) for i in range(5)]
        released = [s.offer(t) for t in tasks]
        assert released[:2] == [[], []]
        assert released[2] == tasks[:3]
        assert released[3:] == [[], []]
        assert s.flush() == tasks[3:]
        assert s.pending == ()

    def test_scheduler_for_factory(self):
        assert isinstance(scheduler_for("eager"), EagerScheduler)
        assert scheduler_for("lazy", floor=0.7).floor == 0.7
        assert scheduler_for("batched", batch_size=2).batch_size == 2
        with pytest.raises(ValueError, match="unknown rebuild policy"):
            scheduler_for("psychic")


# ------------------------------------------------- metered end-to-end passes


def _kill(disks, at=0.02):
    return FaultPlan.from_scenario(
        [{"at": at, "fault": "disk_fail", "disk": d} for d in disks]
    )


def _scheme_under_kills(name, disks, floor=None):
    cluster = Cluster(n_disks=8, rtt_s=0.001)
    hub = RngHub(9)
    scheme = scheme_class(name)(cluster, CFG, hub=hub)
    if floor is not None:
        scheme.REPAIR_REDUNDANCY_FLOOR = floor
    cluster.redraw_disk_states(hub.fresh("env", 0))
    scheme.prepare("f", 0)
    cluster.install_faults(_kill(disks))
    return scheme, scheme.read("f", 0)


class TestMeteredRepairs:
    @pytest.mark.parametrize(
        "name,algorithm",
        [
            ("robustore-rs", "reed-solomon"),
            ("regen-msr", "regenerating-msr"),
            ("regen-mbr", "regenerating-mbr"),
        ],
    )
    def test_repair_restores_redundancy_and_meters(self, name, algorithm):
        scheme, r = _scheme_under_kills(name, [0, 1, 2, 3], floor=0.99)
        assert np.isfinite(r.latency_s)
        ledger = RepairLedger()
        scheme.cluster.repair_ledger = ledger
        decision = maybe_repair(scheme, "f", 0, r)
        assert decision.repaired and decision.dead_disks == (0, 1, 2, 3)
        (event,) = ledger.events
        assert event.algorithm == algorithm
        assert event.blocks_rebuilt == event.blocks_lost > 0
        assert event.bytes_read_helpers > 0
        assert np.isfinite(event.wall_time_s)
        # Nothing of the record lives on the dead disks any more.
        record = scheme.metadata.lookup("f")
        for idx, disk in enumerate(record.disk_ids):
            if disk in decision.dead_disks:
                assert not record.placement[idx]
        assert np.isfinite(scheme.read("f", 0).latency_s)

    def test_regenerating_reads_fewer_helper_bytes_than_rs(self):
        # A wider cluster keeps the per-disk loss small relative to the RS
        # group word (on 8 disks one disk holds half a word and the ratios
        # tie at 2.0).
        cfg = AccessConfig(
            data_bytes=32 * MB, block_bytes=1 * MB, n_disks=16, redundancy=3.0
        )
        bytes_read = {}
        for name in ("robustore-rs", "regen-msr"):
            cluster = Cluster(n_disks=16, rtt_s=0.001)
            hub = RngHub(9)
            scheme = scheme_class(name)(cluster, cfg, hub=hub)
            scheme.REPAIR_REDUNDANCY_FLOOR = 0.99
            cluster.redraw_disk_states(hub.fresh("env", 0))
            scheme.prepare("f", 0)
            cluster.install_faults(_kill([0]))
            r = scheme.read("f", 0)
            ledger = RepairLedger()
            cluster.repair_ledger = ledger
            assert maybe_repair(scheme, "f", 0, r).repaired
            lost = ledger.blocks_lost * cfg.block_bytes
            bytes_read[name] = ledger.bytes_read_helpers / lost
        # MSR node repair: d/alpha = 2.0 MB per lost MB; RS re-reads a
        # whole group word per loss.
        assert bytes_read["regen-msr"] == pytest.approx(2.0)
        assert bytes_read["regen-msr"] < bytes_read["robustore-rs"]

    def test_new_failure_opens_a_new_epoch(self):
        scheme, r = _scheme_under_kills("robustore", [0, 1, 2, 3], floor=0.99)
        first = maybe_repair(scheme, "f", 0, r)
        assert first.repaired
        assert maybe_repair(scheme, "f", 0, r).reason == "duplicate"
        # A fifth disk dies: the dead set changes, so repair runs again.
        scheme.cluster.install_faults(_kill([4]))
        second = maybe_repair(scheme, "f", 0, r)
        assert second.repaired and second.dead_disks == (4,)

    @pytest.mark.parametrize("name", ["robustore", "robustore-rs", "regen-msr"])
    def test_failed_pass_is_retried_not_deduplicated(self, name):
        # Seven of eight disks dead: the survivors cannot reconstruct, so
        # the pass raises — and must raise again on the next notification
        # instead of being swallowed as a "duplicate" of an epoch it never
        # repaired.
        scheme, r = _scheme_under_kills(name, list(range(7)), floor=0.99)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                maybe_repair(scheme, "f", 0, r)
        assert "repair_epoch" not in scheme.metadata.lookup("f").extra

    @pytest.mark.parametrize(
        "name,algorithm",
        [("rraid-s", "replication"), ("raid0+1", "mirrored-striping"),
         ("raid5", "parity")],
    )
    def test_layout_without_a_repair_pass_raises_and_stays_unclaimed(
        self, name, algorithm
    ):
        # These layouts have no repair pass: each notification must say so,
        # and the epoch it never repaired must not turn the next one into
        # a "duplicate".
        scheme, r = _scheme_under_kills(name, [0, 1], floor=0.99)
        for _ in range(2):
            with pytest.raises(NotImplementedError, match=algorithm):
                maybe_repair(scheme, "f", 0, r)
        assert "repair_epoch" not in scheme.metadata.lookup("f").extra

    def test_scheduler_defers_and_drain_repairs(self):
        scheme, r = _scheme_under_kills("robustore-rs", [0, 1, 2, 3], floor=0.99)
        ledger = RepairLedger()
        scheme.cluster.repair_ledger = ledger
        scheduler = LazyThresholdScheduler(floor=0.0)
        decision = maybe_repair(scheme, "f", 0, r, scheduler=scheduler)
        assert decision.triggered and not decision.repaired
        assert decision.reason == "deferred" and decision.deferred == 1
        assert ledger.repairs == 0
        # Degraded reads are metered even while the rebuild waits.
        assert ledger.degraded_reads == 1
        reports = drain_repairs(scheme, scheduler)
        assert len(reports) == 1 and reports[0].complete
        assert ledger.repairs == 1
        assert scheduler.pending == ()

    def test_cluster_installed_ledger_is_found(self):
        scheme, r = _scheme_under_kills("robustore-rs", [0, 1, 2, 3], floor=0.99)
        ledger = RepairLedger()
        scheme.cluster.repair_ledger = ledger
        assert maybe_repair(scheme, "f", 0, r).repaired
        assert ledger.repairs == 1
