"""Scheme reactions to mid-operation faults, and the zero-fault contract."""

import dataclasses

import numpy as np
import pytest

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.cluster.server import Cluster
from repro.core import SCHEMES
from repro.core.repair import maybe_repair
from repro.experiments.harness import TrialPlan, run_scheme
from repro.faults import FaultPlan
from repro.sim.rng import RngHub

CFG = AccessConfig(data_bytes=32 * MB, block_bytes=1 * MB, n_disks=8, redundancy=3.0)
ALL = ("raid0", "rraid-s", "rraid-a", "robustore")


def run_with_plan(name, plan, trial=0, mode="read"):
    """One access on an 8-disk cluster with a fault plan installed."""
    cluster = Cluster(n_disks=8, rtt_s=0.001)
    hub = RngHub(9)
    scheme = SCHEMES[name](cluster, CFG, hub=hub)
    cluster.redraw_disk_states(hub.fresh("env", trial))
    cluster.install_faults(plan)
    if mode == "write":
        return scheme.write("f", trial), scheme
    scheme.prepare("f", trial)
    return scheme.read("f", trial), scheme


def transient_all_disk_fail(at=0.02, duration=1.0):
    return FaultPlan.from_scenario(
        [{"at": at, "fault": "disk_fail", "disk": d, "duration": duration}
         for d in range(8)]
    )


def permanent_kills(disks, at=0.02):
    return FaultPlan.from_scenario(
        [{"at": at, "fault": "disk_fail", "disk": d} for d in disks]
    )


# ------------------------------------------------------------ zero perturbation


class TestZeroFaultContract:
    """An installed empty plan must not change a single bit of any result."""

    @pytest.mark.parametrize("name", ALL)
    def test_empty_plan_is_bit_identical(self, name):
        plain, _ = run_with_plan(name, None)
        empty, _ = run_with_plan(name, FaultPlan.empty())
        assert empty.latency_s == plain.latency_s
        assert empty.network_bytes == plain.network_bytes
        assert empty.blocks_received == plain.blocks_received
        assert empty.rounds == plain.rounds

    @pytest.mark.parametrize("name", ALL)
    def test_empty_plan_through_harness(self, name):
        """The TrialPlan path: a zero-fault plan equals a plain run exactly."""
        base = TrialPlan(access=CFG, pool=8, rtt_s=0.001, seed=3, trials=2)
        plain = run_scheme(base, name)
        faulted = run_scheme(
            dataclasses.replace(base, fault_plan=FaultPlan.empty()), name
        )
        assert [r.latency_s for r in faulted] == [r.latency_s for r in plain]
        assert [r.network_bytes for r in faulted] == [r.network_bytes for r in plain]

    def test_empty_plan_installs_no_injector(self):
        cluster = Cluster(n_disks=8)
        cluster.install_faults(FaultPlan.empty())
        assert cluster.faults is None


# ------------------------------------------------------------ scheme reactions


class TestTransientClusterOutage:
    """Every disk dies at t=0.02 and returns 1 s later: only the scheme that
    can re-speculate onto recovered disks finishes the read."""

    def test_robustore_respeculates_to_completion(self):
        r, _ = run_with_plan("robustore", transient_all_disk_fail())
        assert np.isfinite(r.latency_s)
        assert r.rounds == 2  # the second speculation round did the work
        assert r.latency_s > 1.0  # it had to wait out the outage

    @pytest.mark.parametrize("name", ["raid0", "rraid-s", "rraid-a"])
    def test_fixed_schemes_lose_the_read(self, name):
        r, _ = run_with_plan(name, transient_all_disk_fail())
        assert r.latency_s == float("inf")


class TestPartialFailures:
    def test_raid0_dies_on_one_lost_stripe_disk(self):
        r, _ = run_with_plan("raid0", permanent_kills([0]))
        assert r.latency_s == float("inf")

    @pytest.mark.parametrize("name", ["rraid-s", "rraid-a", "robustore"])
    def test_redundant_schemes_survive_one_loss(self, name):
        r, _ = run_with_plan(name, permanent_kills([0]))
        assert np.isfinite(r.latency_s)

    def test_slowdown_stretches_but_completes(self):
        plan = FaultPlan.from_scenario(
            [{"at": 0.0, "fault": "disk_slow", "disk": d,
              "factor": 3.0, "duration": 30.0} for d in range(8)]
        )
        for name in ALL:
            plain, _ = run_with_plan(name, None)
            slow, _ = run_with_plan(name, plan)
            assert np.isfinite(slow.latency_s)
            assert slow.latency_s > plain.latency_s

    def test_link_degrade_adds_latency(self):
        plan = FaultPlan.from_scenario(
            [{"at": 0.0, "fault": "link_degrade", "filer": 0,
              "extra_s": 0.05, "duration": 30.0}]
        )
        plain, _ = run_with_plan("robustore", None)
        slow, _ = run_with_plan("robustore", plan)
        assert np.isfinite(slow.latency_s)
        assert slow.latency_s > plain.latency_s

    def test_filer_crash_defers_the_read(self):
        plan = FaultPlan.from_scenario(
            [{"at": 0.05, "fault": "filer_crash", "filer": 0, "duration": 0.5}]
        )
        plain, _ = run_with_plan("robustore", None)
        crashed, _ = run_with_plan("robustore", plan)
        assert np.isfinite(crashed.latency_s)
        assert crashed.latency_s > plain.latency_s


# ------------------------------------------------------------ repair trigger


class TestRepairTrigger:
    def test_four_permanent_kills_trigger_repair(self):
        # 8 disks at redundancy 3.0: losing half the blocks leaves
        # surviving redundancy 1.0 < 1.5 (the 0.5 x redundancy floor).
        r, scheme = run_with_plan("robustore", permanent_kills([0, 1, 2, 3]))
        assert np.isfinite(r.latency_s)  # still decodes from survivors
        assert r.extra["repair_triggered"]
        assert r.extra["surviving_redundancy"] == pytest.approx(1.0)
        decision = maybe_repair(scheme, "f", 0, r)
        assert decision.triggered and decision.repaired
        assert decision.reason == "repaired"
        assert len(decision.dead_disks) == 4
        (report,) = decision.reports
        assert report.complete and report.bytes_read_helpers > 0

    def test_repeat_notification_same_epoch_is_deduped(self):
        r, scheme = run_with_plan("robustore", permanent_kills([0, 1, 2, 3]))
        first = maybe_repair(scheme, "f", 0, r)
        assert first.repaired
        again = maybe_repair(scheme, "f", 0, r)
        assert again.triggered and not again.repaired
        assert again.reason == "duplicate"
        assert again.dead_disks == first.dead_disks

    def test_three_kills_stay_above_the_floor(self):
        r, scheme = run_with_plan("robustore", permanent_kills([0, 1, 2]))
        assert np.isfinite(r.latency_s)
        assert not r.extra["repair_triggered"]
        assert r.extra["surviving_redundancy"] == pytest.approx(1.5)
        decision = maybe_repair(scheme, "f", 0, r)
        assert not decision.triggered and not decision.repaired
        assert decision.reason == "healthy"

    def test_no_faults_no_trigger(self):
        r, scheme = run_with_plan("robustore", None)
        assert not r.extra.get("repair_triggered")
        decision = maybe_repair(scheme, "f", 0, r)
        assert not decision.triggered and not decision.repaired


# ------------------------------------------------------------ write path


class TestFaultedWrites:
    def test_write_fails_when_every_disk_dies(self):
        r, _ = run_with_plan("robustore", permanent_kills(range(8), at=0.0),
                             mode="write")
        assert r.latency_s == float("inf")
        assert r.extra["write_failed"]

    def test_transient_outage_also_kills_the_single_round_write(self):
        # Writes are single-round (no re-speculation): blocks flushed by the
        # outage never commit, so the decodable target is unreachable.
        r, _ = run_with_plan("robustore", transient_all_disk_fail(), mode="write")
        assert r.latency_s == float("inf")
        assert r.extra["write_failed"]


class TestTotalLoss:
    def test_all_disks_permanently_dead_kills_even_robustore(self):
        r, _ = run_with_plan("robustore", permanent_kills(range(8)))
        assert r.latency_s == float("inf")
