"""Tests for disk-failure handling across the stack.

Failures are injected through the public fault API
(:meth:`repro.cluster.server.Cluster.install_faults` with a
:class:`repro.faults.FaultPlan`): a permanent ``disk_fail`` at t=0 is the
"dead disk" of the original paper experiments, and timed events cover the
mid-read cases the redraw-based injection never could.
"""

import numpy as np
import pytest

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.cluster.server import Cluster
from repro.core import SCHEMES
from repro.disk.mechanics import DiskMechanics
from repro.disk.service import BlockService, served_before
from repro.disk.workload import InDiskLayout
from repro.faults import FaultPlan
from repro.sim.rng import RngHub

CFG = AccessConfig(data_bytes=32 * MB, block_bytes=1 * MB, n_disks=8, redundancy=3.0)


def test_failed_service_never_completes():
    svc = BlockService(
        DiskMechanics(), InDiskLayout(256, 1.0), 870, np.random.default_rng(0), failed=True
    )
    c = svc.serve(4, MB, 0.0)
    assert np.all(np.isinf(c))


def test_served_before_ignores_infinite():
    c = np.array([1.0, np.inf, np.inf])
    assert served_before(c, 2.0) == 1
    assert served_before(c, float("inf")) == 1
    assert served_before(np.full(3, np.inf), 100.0) == 0


def kill_plan(disks, at=0.0, duration=None):
    return FaultPlan.from_scenario(
        [{"at": at, "fault": "disk_fail", "disk": int(d),
          **({"duration": duration} if duration is not None else {})}
         for d in disks]
    )


def run_with_plan(name, plan, trial=0):
    cluster = Cluster(n_disks=8, rtt_s=0.001)
    hub = RngHub(9)
    scheme = SCHEMES[name](cluster, CFG, hub=hub)
    cluster.redraw_disk_states(hub.fresh("env", trial))
    cluster.install_faults(plan)
    scheme.prepare("f", trial)
    return scheme.read("f", trial)


def run_with_failures(name, failed, trial=0):
    """Dead-from-the-start disks, via the public fault API."""
    return run_with_plan(name, kill_plan(failed) if failed else None, trial)


def test_raid0_dies_with_any_failed_disk():
    r = run_with_failures("raid0", failed={0})
    assert r.latency_s == float("inf")


def test_robustore_survives_failures():
    r = run_with_failures("robustore", failed={0, 1})
    assert np.isfinite(r.latency_s)
    assert r.extra["reception_overhead"] < 2.0


def test_rraid_s_survives_one_failure():
    r = run_with_failures("rraid-s", failed={3})
    assert np.isfinite(r.latency_s)


def test_rraid_a_survives_one_failure():
    r = run_with_failures("rraid-a", failed={3})
    assert np.isfinite(r.latency_s)


def _prepare_then_fail(name, positions, trial=0):
    """Fail the disks at specific *placement positions* (rotation-aware)."""
    cluster = Cluster(n_disks=8, rtt_s=0.001)
    hub = RngHub(9)
    scheme = SCHEMES[name](cluster, CFG, hub=hub)
    cluster.redraw_disk_states(hub.fresh("env", trial))
    record = scheme.prepare("f", trial)
    cluster.install_faults(kill_plan(record.disk_ids[p] for p in positions))
    return scheme.read("f", trial)


def test_rraid_a_dies_when_all_replicas_failed():
    """Kill four placement-consecutive disks: blocks homed on the first
    lose every rotated copy (replicas = 4)."""
    r = _prepare_then_fail("rraid-a", positions=(0, 1, 2, 3))
    assert r.latency_s == float("inf")


def test_rraid_s_dies_when_all_replicas_failed():
    r = _prepare_then_fail("rraid-s", positions=(0, 1, 2, 3))
    assert r.latency_s == float("inf")


def test_robustore_survives_where_replication_cannot():
    r = _prepare_then_fail("robustore", positions=(0, 1, 2, 3))
    assert np.isfinite(r.latency_s)


def test_too_many_failures_kill_even_robustore():
    """With every selected disk dead, nothing decodes."""
    r = run_with_failures("robustore", failed=set(range(8)))
    assert r.latency_s == float("inf")


# -- mid-read failure timing -------------------------------------------------


class TestMidReadFailureTiming:
    """The disks die at 25%/50%/75% of the scheme's fault-free read time."""

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
    def test_raid0_loses_blocks_still_in_flight(self, fraction):
        T = run_with_plan("raid0", None).latency_s
        assert np.isfinite(T)
        r = run_with_plan("raid0", kill_plan(range(8), at=fraction * T))
        assert r.latency_s == float("inf")

    def test_raid0_unharmed_once_the_read_is_over(self):
        T = run_with_plan("raid0", None).latency_s
        r = run_with_plan("raid0", kill_plan(range(8), at=1.5 * T))
        # The fault fires after the last block arrived: same read, to
        # within the float noise of routing times through the warp.
        assert r.latency_s == pytest.approx(T, rel=1e-12)

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
    def test_robustore_respeculates_through_a_transient_outage(self, fraction):
        T = run_with_plan("robustore", None).latency_s
        assert np.isfinite(T)
        plan = kill_plan(range(8), at=fraction * T, duration=0.5)
        r = run_with_plan("robustore", plan)
        assert np.isfinite(r.latency_s)
        assert r.latency_s >= T  # the outage can only delay it

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
    def test_later_single_disk_kills_never_slow_robustore_more(self, fraction):
        """One lost disk mid-read: the erasure code absorbs it at any time."""
        T = run_with_plan("robustore", None).latency_s
        r = run_with_plan("robustore", kill_plan([0], at=fraction * T))
        assert np.isfinite(r.latency_s)
