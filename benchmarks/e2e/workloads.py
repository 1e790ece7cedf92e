"""The end-to-end benchmark's four workloads.

Each workload is a fixed list of *cells*; one pass runs every cell once.
A cell is the unit the benchmark times, digests and host-normalises.  The
simulator receives only the generated inputs: a seed and the plan, never
a flag saying it is being benchmarked.

The workloads are chosen so that each one stresses a different layer and
so that an optimisation of one layer has a workload that bypasses it:

* ``grid_read``: the closed-form fig6_06 read sweep, the paper's headline
  figure.  Dispatch, disk-service sampling and RNG derivation dominate;
  the DES kernel does no work at all.
* ``event_storm``: the event-driven engine under a mid-operation fault
  storm.  The only workload that runs ``repro.sim`` and the DES drive.
* ``raw_cached``: write, redraw, age the filer caches, read.  Writes, the
  background fixed point and ``cluster.fscache`` dominate.
* ``serve_open``: the open-loop serving facade at 10^5 clients.  The
  access core only runs in the facade's calibration.
"""

from __future__ import annotations

from repro.core.access import MB
from repro.experiments import config as C
from repro.experiments.faultstorm import HORIZON_S, STORM
from repro.experiments.harness import TrialPlan, run_scheme
from repro.serve import ServePlan, StorageService, WorkloadSpec


class Workload:
    """A named list of cells; subclasses say how to run and digest one."""

    name = ""
    #: Ops (simulated accesses or replayed requests) one cell runs.
    ops_per_cell = 0
    #: Simulated accesses one pass runs (the base of per-trial ratios).
    trials_per_pass = 0

    def cells(self) -> list:
        raise NotImplementedError

    def run(self, cell, seed: int, trials: int | None = None):
        """Run one cell; return its raw output."""
        raise NotImplementedError

    def payload(self, cell, out):
        """JSON-able form of a cell's output (what the digest covers)."""
        raise NotImplementedError

    def check(self, cell, out) -> None:
        """Raise ``ValueError`` if a cell's output is not a valid result."""
        raise NotImplementedError

    def params(self) -> dict:
        """The workload's parameters, as recorded beside its baseline."""
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        """The set-up probe: the first cell, shrunk to one op."""
        self.run(self.cells()[0], seed, trials=1)


class ClosedLoopGrid(Workload):
    """Cells of ``(n_disks, scheme)`` through the harness's ``run_scheme``."""

    disk_counts: tuple = ()
    schemes: tuple = ()
    data_mb = 0
    trials = 0
    plan_kwargs: dict = {}

    def cells(self) -> list:
        return [(h, s) for h in self.disk_counts for s in self.schemes]

    def plan(self, n_disks: int, seed: int, trials: int) -> TrialPlan:
        return TrialPlan(
            access=C.baseline_access(n_disks=n_disks, data_bytes=self.data_mb * MB),
            trials=trials,
            seed=seed,
            **self.plan_kwargs,
        )

    def run(self, cell, seed: int, trials: int | None = None):
        n_disks, scheme = cell
        plan = self.plan(n_disks, seed, self.trials if trials is None else trials)
        return run_scheme(plan, scheme)

    def payload(self, cell, out):
        n_disks, scheme = cell
        return [n_disks, scheme, [r.to_jsonable() for r in out]]

    @property
    def ops_per_cell(self) -> int:
        return self.trials

    @property
    def trials_per_pass(self) -> int:
        return self.trials * len(self.cells())

    def check(self, cell, out) -> None:
        if len(out) != self.trials:
            raise ValueError(f"{cell}: {len(out)} results for {self.trials} trials")
        for r in out:
            if not r.latency_s > 0.0 or r.data_bytes != self.data_mb * MB:
                raise ValueError(f"{cell}: invalid result {r.latency_s!r} s")

    def params(self) -> dict:
        kw = {
            k: v if isinstance(v, (int, float, str)) else repr(v)
            for k, v in self.plan_kwargs.items()
        }
        return {
            "disk_counts": list(self.disk_counts),
            "schemes": list(self.schemes),
            "data_mb": self.data_mb,
            "trials_per_cell": self.trials,
            **kw,
        }


class GridRead(ClosedLoopGrid):
    name = "grid_read"
    disk_counts = (2, 8, 16, 64, 128)
    schemes = C.ALL_SCHEMES
    data_mb = 256
    trials = 16
    plan_kwargs = {"mode": "read", "background": "none", "engine": "closed"}


class EventStorm(ClosedLoopGrid):
    name = "event_storm"
    disk_counts = (32,)
    schemes = ("raid0", "rraid-a", "robustore")
    # Event-engine cost per trial varies by ~30% with the storm and the
    # background draws; 72 trials per pass hold the seed-to-seed spread
    # of a pass's work to ~3.5% (24 trials per pass: ~12%).
    data_mb = 32
    trials = 24
    plan_kwargs = {
        "mode": "read",
        "background": "heterogeneous",
        "fault_model": STORM,
        "fault_horizon_s": HORIZON_S,
        "engine": "event",
    }


class RawCached(ClosedLoopGrid):
    name = "raw_cached"
    disk_counts = (32,)
    schemes = C.ALL_SCHEMES
    data_mb = 256
    trials = 8
    plan_kwargs = {
        "mode": "raw",
        "background": "heterogeneous",
        "fs_cache_bytes": C.FS_CACHE_BYTES,
        "engine": "closed",
    }


class ServeOpen(Workload):
    """One cell per scheme: ``StorageService.run`` at 10^5 clients."""

    name = "serve_open"
    schemes = ("raid0", "robustore")
    n_clients = 100_000
    setup_clients = 1_000
    ops_per_cell = n_clients
    #: The facade's calibration accesses, the only ones it simulates.
    trials_per_pass = len(schemes) * ServePlan(workload=WorkloadSpec()).calibration_trials

    def cells(self) -> list:
        return list(self.schemes)

    def run(self, cell, seed: int, trials: int | None = None):
        spec = WorkloadSpec(n_clients=self.n_clients)
        return StorageService(ServePlan(workload=spec, seed=seed), cell).run()

    def setup(self, seed: int) -> None:
        spec = WorkloadSpec(n_clients=self.setup_clients)
        StorageService(ServePlan(workload=spec, seed=seed), self.schemes[0]).run()

    def payload(self, cell, out):
        return [cell, out.to_jsonable()]

    def check(self, cell, out) -> None:
        if out.offered != self.n_clients or out.admitted + out.rejected != out.offered:
            raise ValueError(
                f"{cell}: offered {out.offered}, admitted {out.admitted}, "
                f"rejected {out.rejected} for {self.n_clients} clients"
            )

    def params(self) -> dict:
        return {
            "schemes": list(self.schemes),
            "workload": WorkloadSpec(n_clients=self.n_clients).to_jsonable(),
            "setup_clients": self.setup_clients,
        }


WORKLOADS = {w.name: w for w in (GridRead(), EventStorm(), RawCached(), ServeOpen())}
