"""Event-driven fault injection: DiskDrive fail/recover/slow on the DES kernel."""

import numpy as np
import pytest

from repro.cluster.server import Cluster
from repro.disk.drive import DiskDrive
from repro.disk.mechanics import DiskMechanics
from repro.faults import FaultInjector, FaultPlan
from repro.sim import Environment


def make_drive(env, seed=0, **kw):
    return DiskDrive(env, DiskMechanics(), np.random.default_rng(seed), **kw)


def make_injector(plan, n_disks=8, disks_per_filer=4):
    cluster = Cluster(n_disks=n_disks, disks_per_filer=disks_per_filer)
    return FaultInjector(cluster, plan)


# ------------------------------------------------------------ direct drive hooks


class TestDriveFaultHooks:
    def test_fail_aborts_in_flight_request(self):
        env = Environment()
        drive = make_drive(env)
        req = drive.read(0, 2048)  # ~1 MB: service time >> 1 ms

        def killer():
            yield env.timeout(0.001)
            drive.fail()

        env.process(killer(), name="killer")
        env.run()
        assert req.done.value == float("inf")

    def test_fail_flushes_queued_requests(self):
        env = Environment()
        drive = make_drive(env)
        reqs = [drive.read(i * 4096, 2048) for i in range(4)]

        def killer():
            yield env.timeout(0.001)
            drive.fail()

        env.process(killer(), name="killer")
        env.run()
        assert all(r.done.value == float("inf") for r in reqs)

    def test_submit_to_failed_drive_is_instant_erasure(self):
        env = Environment()
        drive = make_drive(env)
        drive.fail()
        req = drive.read(0, 64)
        assert req.done.triggered and req.done.value == float("inf")

    def test_recovered_drive_serves_new_requests(self):
        env = Environment()
        drive = make_drive(env)
        lost = drive.read(0, 2048)
        done_after: list[float] = []

        def script():
            yield env.timeout(0.001)
            drive.fail()
            yield env.timeout(0.05)
            drive.recover()
            req = drive.read(0, 64)
            t = yield req.done
            done_after.append(t)

        env.process(script(), name="script")
        env.run()
        assert lost.done.value == float("inf")  # the flush is not undone
        assert len(done_after) == 1 and np.isfinite(done_after[0])
        assert done_after[0] > 0.051

    def test_set_slow_stretches_service(self):
        def served_at(factor):
            env = Environment()
            drive = make_drive(env)
            if factor is not None:
                drive.set_slow(factor)
            req = drive.read(0, 256)
            env.run()
            return req.done.value

        base = served_at(None)
        slow = served_at(4.0)
        assert np.isfinite(base) and np.isfinite(slow)
        assert slow > base

    def test_set_slow_validates_factor(self):
        env = Environment()
        drive = make_drive(env)
        with pytest.raises(ValueError):
            drive.set_slow(0.5)


# ------------------------------------------------------------ injector pump


class TestScheduleOn:
    def test_windowed_fail_flips_fail_then_recover(self):
        plan = FaultPlan.from_scenario(
            [{"at": 0.001, "fault": "disk_fail", "disk": 0, "duration": 0.05}]
        )
        inj = make_injector(plan)
        env = Environment()
        drive = make_drive(env)
        lost = drive.read(0, 2048)
        inj.schedule_on(env, {0: drive})
        recovered: list[float] = []

        def late_reader():
            yield env.timeout(0.1)
            t = yield drive.read(0, 64).done
            recovered.append(t)

        env.process(late_reader(), name="late")
        env.run()
        assert lost.done.value == float("inf")
        assert not drive.failed
        assert recovered and np.isfinite(recovered[0])

    def test_explicit_recover_event(self):
        plan = FaultPlan.from_scenario([
            {"at": 0.001, "fault": "disk_fail", "disk": 0},
            {"at": 0.05, "fault": "disk_recover", "disk": 0},
        ])
        inj = make_injector(plan)
        env = Environment()
        drive = make_drive(env)
        inj.schedule_on(env, {0: drive})
        env.run()
        assert not drive.failed

    def test_slow_window_sets_then_clears_the_factor(self):
        plan = FaultPlan.from_scenario(
            [{"at": 0.0, "fault": "disk_slow", "disk": 0,
              "factor": 4.0, "duration": 0.05}]
        )
        inj = make_injector(plan)
        env = Environment()
        drive = make_drive(env)
        seen: list[float] = []

        def probe():
            yield env.timeout(0.01)
            seen.append(drive.slow_factor)
            yield env.timeout(0.1)
            seen.append(drive.slow_factor)

        env.process(probe(), name="probe")
        inj.schedule_on(env, {0: drive})
        env.run()
        assert seen == [4.0, 1.0]

    def test_filer_crash_fails_every_drive_of_the_filer(self):
        plan = FaultPlan.from_scenario(
            [{"at": 0.001, "fault": "filer_crash", "filer": 0, "duration": 0.05}]
        )
        inj = make_injector(plan, n_disks=8, disks_per_filer=4)
        env = Environment()
        drives = {d: make_drive(env, seed=d) for d in range(8)}
        reqs = {d: drives[d].read(0, 2048) for d in range(8)}
        inj.schedule_on(env, drives)
        env.run()
        for d in range(4):  # filer 0's drives flushed...
            assert reqs[d].done.value == float("inf")
            assert not drives[d].failed  # ...and restarted at the window end
        for d in range(4, 8):  # filer 1 untouched
            assert np.isfinite(reqs[d].done.value)

    def test_pump_runs_under_the_sanitizer(self):
        """The injector's timeouts must satisfy the causality sanitizer."""
        plan = FaultPlan.from_scenario([
            {"at": 0.001, "fault": "disk_fail", "disk": 0, "duration": 0.02},
            {"at": 0.010, "fault": "disk_slow", "disk": 1,
             "factor": 2.0, "duration": 0.02},
        ])
        inj = make_injector(plan)
        env = Environment(sanitize=True)
        drives = {d: make_drive(env, seed=d) for d in range(2)}
        for d in drives:
            drives[d].read(0, 512)
        inj.schedule_on(env, drives)
        env.run()  # raises SimulationError on any causality violation
        assert not drives[0].failed
