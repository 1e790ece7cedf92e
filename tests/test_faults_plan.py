"""Unit tests for repro.faults: plans, timelines, compile, fault model."""

import json
import math

import numpy as np
import pytest

from repro.faults.model import FaultModel
from repro.faults.plan import (
    DISK_FAIL,
    DISK_RECOVER,
    DISK_SLOW,
    FILER_CRASH,
    LINK_DEGRADE,
    FaultEvent,
    FaultPlan,
)
from repro.faults.timeline import DiskTimeline, LinkTimeline, compile_plan


# ------------------------------------------------------------------ events


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(t=0.0, kind="meteor_strike", disk=0)

    def test_negative_or_nonfinite_time_rejected(self):
        with pytest.raises(ValueError, match="finite and non-negative"):
            FaultEvent(t=-1.0, kind=DISK_FAIL, disk=0)
        with pytest.raises(ValueError, match="finite and non-negative"):
            FaultEvent(t=float("inf"), kind=DISK_FAIL, disk=0)

    def test_target_exclusivity(self):
        # Disk kinds take a disk, never a filer — and vice versa.
        with pytest.raises(ValueError, match="targets a disk"):
            FaultEvent(t=0.0, kind=DISK_FAIL, filer=0)
        with pytest.raises(ValueError, match="targets a disk"):
            FaultEvent(t=0.0, kind=DISK_FAIL, disk=0, filer=0)
        with pytest.raises(ValueError, match="targets a filer"):
            FaultEvent(t=0.0, kind=FILER_CRASH, disk=0, duration=1.0)

    def test_duration_rules(self):
        # Windowed kinds require a positive finite duration.
        with pytest.raises(ValueError, match="requires a duration"):
            FaultEvent(t=0.0, kind=DISK_SLOW, disk=0, factor=2.0)
        with pytest.raises(ValueError, match="requires a duration"):
            FaultEvent(t=0.0, kind=FILER_CRASH, filer=0)
        with pytest.raises(ValueError, match="positive"):
            FaultEvent(t=0.0, kind=DISK_FAIL, disk=0, duration=-1.0)
        # disk_fail without duration is legal: permanent until recover.
        ev = FaultEvent(t=0.5, kind=DISK_FAIL, disk=3)
        assert ev.end is None
        assert FaultEvent(t=0.5, kind=DISK_FAIL, disk=3, duration=1.5).end == 2.0

    def test_factor_and_extra_s_rules(self):
        with pytest.raises(ValueError, match="factor >= 1"):
            FaultEvent(t=0.0, kind=DISK_SLOW, disk=0, factor=0.5, duration=1.0)
        with pytest.raises(ValueError, match="only valid for disk_slow"):
            FaultEvent(t=0.0, kind=DISK_FAIL, disk=0, factor=2.0)
        with pytest.raises(ValueError, match="extra_s > 0"):
            FaultEvent(t=0.0, kind=LINK_DEGRADE, filer=0, duration=1.0, extra_s=0.0)
        with pytest.raises(ValueError, match="only valid for link_degrade"):
            FaultEvent(t=0.0, kind=FILER_CRASH, filer=0, duration=1.0, extra_s=0.01)


# ------------------------------------------------------------------ plans


SCENARIO = [
    {"at": 0.5, "fault": "disk_fail", "disk": 3},
    {"at": 2.0, "fault": "disk_recover", "disk": 3},
    {"at": 0.2, "fault": "disk_slow", "disk": 7, "factor": 4.0, "duration": 1.5},
    {"at": 1.0, "fault": "filer_crash", "filer": 0, "duration": 0.5},
    {"at": 0.0, "fault": "link_degrade", "filer": 1, "extra_s": 0.05, "duration": 2.0},
]


class TestFaultPlan:
    def test_events_sorted_and_order_independent(self):
        a = FaultPlan.from_scenario(SCENARIO)
        b = FaultPlan.from_scenario(list(reversed(SCENARIO)))
        assert a == b
        assert hash(a) == hash(b)
        assert [e.t for e in a] == sorted(e.t for e in a)

    def test_scenario_round_trip(self):
        plan = FaultPlan.from_scenario(SCENARIO)
        again = FaultPlan.from_scenario(plan.describe())
        assert again == plan
        # The spec is JSON-serialisable.
        assert FaultPlan.from_scenario(json.loads(json.dumps(plan.describe()))) == plan

    def test_scenario_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unexpected keys"):
            FaultPlan.from_scenario([{"at": 0.0, "fault": "disk_fail", "disk": 0,
                                      "factor": 2.0}])
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_scenario([{"at": 0.0, "fault": "nope", "disk": 0}])
        with pytest.raises(ValueError, match="missing"):
            FaultPlan.from_scenario([{"fault": "disk_fail", "disk": 0}])

    def test_double_fail_rejected(self):
        with pytest.raises(ValueError, match="already failed"):
            FaultPlan([
                FaultEvent(t=0.0, kind=DISK_FAIL, disk=1),
                FaultEvent(t=1.0, kind=DISK_FAIL, disk=1),
            ])

    def test_recover_without_fail_rejected(self):
        with pytest.raises(ValueError, match="without a preceding"):
            FaultPlan([FaultEvent(t=1.0, kind=DISK_RECOVER, disk=1)])
        # A windowed fail self-recovers: a later explicit recover is a bug.
        with pytest.raises(ValueError, match="without a preceding"):
            FaultPlan([
                FaultEvent(t=0.0, kind=DISK_FAIL, disk=1, duration=0.5),
                FaultEvent(t=1.0, kind=DISK_RECOVER, disk=1),
            ])

    def test_empty_plan(self):
        plan = FaultPlan.empty()
        assert plan.is_empty and len(plan) == 0 and plan.describe() == []


# ------------------------------------------------------------------ disk timeline


class TestDiskTimeline:
    def test_fail_stop_flushes_pending_work(self):
        """Blocks unfinished when the disk dies are lost, not delayed."""
        tl = DiskTimeline(down=[(1.0, 2.0)])
        out = tl.warp(np.array([0.5, 1.0, 1.5, 2.5]), start=0.0)
        # A block completing exactly at the fail instant made it out.
        assert out.tolist() == [0.5, 1.0, float("inf"), float("inf")]

    def test_start_after_recovery_is_identity(self):
        tl = DiskTimeline(down=[(1.0, 2.0)])
        out = tl.warp(np.array([3.0, 3.5]), start=2.5)
        assert out.tolist() == [3.0, 3.5]

    def test_start_inside_outage_defers_to_recovery(self):
        tl = DiskTimeline(down=[(1.0, 2.0)])
        out = tl.warp(np.array([1.7]), start=1.2)  # 0.5 s of work
        assert out.tolist() == [2.5]

    def test_start_inside_permanent_outage_is_all_inf(self):
        tl = DiskTimeline(down=[(1.0, math.inf)])
        out = tl.warp(np.array([1.7, 2.0]), start=1.2)
        assert np.all(np.isinf(out))

    def test_slowdown_stretches_through_capacity_map(self):
        # Rate 1 on [0,1), rate 1/2 on [1,3), rate 1 after.
        tl = DiskTimeline(slow=[(1.0, 3.0, 2.0)])
        out = tl.warp(np.array([0.5, 1.0, 1.5, 2.5]), start=0.0)
        assert out.tolist() == [0.5, 1.0, 2.0, 3.5]

    def test_slowdown_then_permanent_fail(self):
        tl = DiskTimeline(down=[(2.0, math.inf)], slow=[(0.0, 10.0, 2.0)])
        out = tl.warp(np.array([1.0, 1.5]), start=0.0)
        assert out.tolist() == [2.0, float("inf")]

    def test_overlapping_slowdowns_take_max_factor(self):
        tl = DiskTimeline(slow=[(0.0, 2.0, 2.0), (1.0, 3.0, 4.0)])
        assert tl.rate_at(0.5) == 0.5
        assert tl.rate_at(1.5) == 0.25
        assert tl.rate_at(2.5) == 0.25
        assert tl.rate_at(3.5) == 1.0

    def test_state_queries(self):
        tl = DiskTimeline(down=[(1.0, 2.0), (5.0, math.inf)])
        assert tl.down_at(1.5) and not tl.down_at(0.5) and tl.down_at(7.0)
        assert tl.rate_at(1.5) == 0.0
        assert tl.resume_time(1.5) == 2.0
        assert tl.resume_time(0.5) == 0.5
        assert math.isinf(tl.resume_time(6.0))
        assert tl.next_fail_after(0.0) == 1.0
        assert tl.next_fail_after(1.0) == 5.0
        assert math.isinf(tl.next_fail_after(5.0))
        assert tl.down_forever
        assert not DiskTimeline(down=[(1.0, 2.0)]).down_forever

    def test_overlapping_down_windows_merge(self):
        tl = DiskTimeline(down=[(1.0, 3.0), (2.0, 4.0)])
        assert tl.down == [(1.0, 4.0)]

    def test_from_events(self):
        assert DiskTimeline.from_events([]) is None
        perm = DiskTimeline.from_events([FaultEvent(t=1.0, kind=DISK_FAIL, disk=0)])
        assert perm.down == [(1.0, math.inf)] and perm.down_forever
        windowed = DiskTimeline.from_events(
            [FaultEvent(t=1.0, kind=DISK_FAIL, disk=0, duration=2.0)]
        )
        assert windowed.down == [(1.0, 3.0)]
        paired = DiskTimeline.from_events([
            FaultEvent(t=1.0, kind=DISK_FAIL, disk=0),
            FaultEvent(t=4.0, kind=DISK_RECOVER, disk=0),
        ])
        assert paired.down == [(1.0, 4.0)] and not paired.down_forever

    def test_warp_empty_input(self):
        tl = DiskTimeline(down=[(1.0, 2.0)])
        assert tl.warp(np.array([]), start=0.0).size == 0


# ------------------------------------------------------------------ link timeline


class TestLinkTimeline:
    def test_extra_windows_sum_on_overlap(self):
        tl = LinkTimeline(extra=[(0.0, 1.0, 0.01), (0.5, 1.5, 0.02)])
        assert tl.extra_at(0.2) == pytest.approx(0.01)
        assert tl.extra_at(0.7) == pytest.approx(0.03)
        assert tl.extra_at(1.2) == pytest.approx(0.02)
        assert tl.extra_at(2.0) == 0.0

    def test_response_arrivals_defer_through_blackout(self):
        tl = LinkTimeline(blackout=[(1.0, 2.0)])
        out = tl.response_arrivals(np.array([0.5, 1.5, 2.5]), one_way_s=0.1)
        # The payload ready mid-blackout leaves at the blackout's end.
        assert out.tolist() == pytest.approx([0.6, 2.1, 2.6])

    def test_request_arrival_defers_and_degrades(self):
        tl = LinkTimeline(extra=[(0.0, 1.0, 0.05)], blackout=[(1.0, 2.0)])
        # Sent at 0.9: +0.1 one-way +0.05 degradation lands at 1.05,
        # inside the blackout, so the filer acts on it at 2.0.
        assert tl.request_arrival(0.9, one_way_s=0.1) == pytest.approx(2.0)
        assert tl.request_arrival(2.5, one_way_s=0.1) == pytest.approx(2.6)

    def test_from_windows_none_when_empty(self):
        assert LinkTimeline.from_windows([], []) is None


# ------------------------------------------------------------------ compile


class TestCompilePlan:
    def test_filer_crash_downs_disks_and_blacks_out_link(self):
        plan = FaultPlan.from_scenario(
            [{"at": 1.0, "fault": "filer_crash", "filer": 0, "duration": 0.5}]
        )
        disk_tl, link_tl = compile_plan(plan, disks_per_filer=4, n_disks=8)
        assert set(disk_tl) == {0, 1, 2, 3}
        assert all(disk_tl[d].down == [(1.0, 1.5)] for d in disk_tl)
        assert set(link_tl) == {0}
        assert link_tl[0].blackout == [(1.0, 1.5)]

    def test_link_degrade_touches_only_the_link(self):
        plan = FaultPlan.from_scenario(
            [{"at": 0.0, "fault": "link_degrade", "filer": 1,
              "extra_s": 0.02, "duration": 2.0}]
        )
        disk_tl, link_tl = compile_plan(plan, disks_per_filer=4, n_disks=8)
        assert disk_tl == {}
        assert set(link_tl) == {1}
        assert link_tl[1].extra == [(0.0, 2.0, 0.02)]

    def test_untouched_targets_get_no_timeline(self):
        plan = FaultPlan.from_scenario([{"at": 0.5, "fault": "disk_fail", "disk": 6}])
        disk_tl, link_tl = compile_plan(plan, disks_per_filer=4, n_disks=8)
        assert set(disk_tl) == {6}
        assert link_tl == {}

    def test_empty_plan_compiles_to_nothing(self):
        disk_tl, link_tl = compile_plan(FaultPlan.empty(), 4, 8)
        assert disk_tl == {} and link_tl == {}


# ------------------------------------------------------------------ fault model


class TestFaultModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="mttf_s"):
            FaultModel(mttf_s=0.0)
        with pytest.raises(ValueError, match="mttr_s"):
            FaultModel(mttr_s=-1.0)
        with pytest.raises(ValueError, match="slow_factor"):
            FaultModel(slow_factor=0.5)
        with pytest.raises(ValueError, match="horizon"):
            FaultModel().sample_plan(np.random.default_rng(0), 4, 0.0)

    def test_all_inf_rates_sample_empty_plan(self):
        plan = FaultModel().sample_plan(np.random.default_rng(0), 8, 10.0, n_filers=2)
        assert plan.is_empty

    def test_equal_seeds_equal_storms(self):
        model = FaultModel(mttf_s=5.0, mttr_s=2.0, slow_mtbf_s=4.0,
                           filer_crash_mtbf_s=6.0, link_degrade_mtbf_s=6.0)
        a = model.sample_plan(np.random.default_rng(42), 8, 20.0, n_filers=2)
        b = model.sample_plan(np.random.default_rng(42), 8, 20.0, n_filers=2)
        c = model.sample_plan(np.random.default_rng(43), 8, 20.0, n_filers=2)
        assert a == b
        assert len(a) > 0
        assert a != c  # different seed, different storm

    def test_mttr_none_means_permanent_failures(self):
        model = FaultModel(mttf_s=1.0, mttr_s=None)
        plan = model.sample_plan(np.random.default_rng(0), 16, 50.0)
        fails = [e for e in plan if e.kind == DISK_FAIL]
        assert fails and all(e.duration is None for e in fails)

    def test_mttr_draws_repair_windows(self):
        model = FaultModel(mttf_s=1.0, mttr_s=3.0)
        plan = model.sample_plan(np.random.default_rng(0), 16, 50.0)
        fails = [e for e in plan if e.kind == DISK_FAIL]
        assert fails and all(e.duration is not None and e.duration > 0 for e in fails)
