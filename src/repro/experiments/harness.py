"""Trial runner: one (scheme, configuration) point -> MetricSummary.

Each trial redraws the per-disk random state (in-disk layout, zone,
competitive load — §6.2.5's sources of variation), randomly selects the
access's disks, and runs the scheme's read and/or write procedure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.accesscore.result import AccessConfig, AccessResult
from repro.cluster.server import Cluster
from repro.core.pipeline import scheme_class
from repro.disk.workload import InDiskLayout
from repro.experiments import config as C
from repro.faults.model import FaultModel
from repro.faults.plan import FaultPlan
from repro.metrics.stats import MetricSummary, summarize
from repro.obs.tracer import current_tracer
from repro.sim.rng import RngHub


@dataclass(frozen=True)
class TrialPlan:
    """One experiment point.

    Attributes
    ----------
    access:
        Access parameters (data size, block size, #disks, redundancy).
    mode:
        ``read`` — fresh balanced read; ``write`` — a write access;
        ``raw`` — write, redraw disk performance, then read the resulting
        (unbalanced, for RobuSTore) placement.
    layout:
        ``None`` = heterogeneous per-disk draws; otherwise every disk uses
        this in-disk layout (homogeneous environment).
    fixed_zone:
        Pin all data to one zone (homogeneous media rate).
    background:
        ``none``; ``homogeneous`` (every disk loaded at ``bg_interval_s``);
        ``heterogeneous`` (per-disk interval drawn from
        ``BG_INTERVAL_RANGE_S`` each trial, §6.3.2).
    """

    access: AccessConfig
    mode: str = "read"
    pool: int = C.POOL_DISKS
    rtt_s: float = C.BASELINE_RTT_S
    fs_cache_bytes: int = 0
    layout: Optional[InDiskLayout] = None
    fixed_zone: Optional[int] = None
    background: str = "none"
    bg_interval_s: float = 0.05
    trials: int = field(default_factory=C.trials)
    seed: int = 0
    #: Simulated gap between a write and its later read (``raw`` mode):
    #: competing traffic during the gap ages the filesystem caches, so
    #: re-reads get partial (not total) hit rates — and trial-to-trial
    #: hit-rate spread, the extra latency variation of Fig 6-36.
    cache_aging_window_s: float = 1000.0
    #: Disks (drawn randomly per trial) that fail and never respond.
    failed_disks: int = 0
    #: Fixed mid-operation fault schedule installed for every trial
    #: (:class:`repro.faults.plan.FaultPlan`); ``None`` = no timed faults.
    fault_plan: Optional[FaultPlan] = None
    #: Stochastic fault storm: a :class:`repro.faults.model.FaultModel`
    #: sampled per (scheme, trial) from its own seeded stream, so fault
    #: draws never perturb the other random streams.  Mutually exclusive
    #: with ``fault_plan``.
    fault_model: Optional[FaultModel] = None
    #: Sampling horizon (simulated seconds) for ``fault_model`` storms.
    fault_horizon_s: float = 60.0
    #: Simulation engine: ``closed`` (vectorised closed form) or ``event``
    #: (the event-driven reference engine).  Defaults from ``REPRO_ENGINE``
    #: (the runner's ``--engine`` flag sets it).
    engine: str = field(default_factory=C.engine)

    def __post_init__(self) -> None:
        if self.mode not in ("read", "write", "raw"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.background not in ("none", "homogeneous", "heterogeneous"):
            raise ValueError(f"unknown background mode {self.background!r}")
        if self.fault_plan is not None and self.fault_model is not None:
            raise ValueError("fault_plan and fault_model are mutually exclusive")
        if self.engine not in ("closed", "event"):
            raise ValueError(f"unknown engine {self.engine!r}")

    def bg_intervals(self, rng: np.random.Generator) -> Optional[dict[int, float]]:
        if self.background == "none":
            return None
        if self.background == "homogeneous":
            return {d: self.bg_interval_s for d in range(self.pool)}
        if self.background == "heterogeneous":
            lo, hi = C.BG_INTERVAL_RANGE_S
            return {d: float(rng.uniform(lo, hi)) for d in range(self.pool)}
        raise ValueError(f"unknown background mode {self.background!r}")


def _engine_read(scheme, name: str, trial: int, engine: str) -> AccessResult:
    if engine == "event":
        from repro.accesscore.events import event_read

        return event_read(scheme, name, trial=trial).result
    return scheme.read(name, trial)


def _engine_write(scheme, name: str, trial: int, engine: str) -> AccessResult:
    if engine == "event":
        from repro.accesscore.events import event_write

        return event_write(scheme, name, trial=trial)
    return scheme.write(name, trial)


def _run_trial(plan: TrialPlan, scheme, cluster: Cluster, hub: RngHub,
               scheme_name: str, trial: int, engine: str = "closed") -> AccessResult:
    """One trial: redraw the environment, run the scheme's access(es).

    Identical between the traced and untraced paths, so installing a tracer
    never changes simulation results (the RNG stream is untouched).
    ``engine`` selects the closed-form evaluator (``"closed"``) or the
    event-driven reference engine (``"event"``) — same environment redraw,
    same fault plan, same policy layer.
    """
    env_rng = hub.fresh("env", scheme_name, trial)
    failed = (
        set(map(int, env_rng.choice(plan.pool, plan.failed_disks, replace=False)))
        if plan.failed_disks
        else None
    )
    cluster.redraw_disk_states(
        env_rng,
        layout=plan.layout,
        background_intervals=plan.bg_intervals(env_rng),
        fixed_zone=plan.fixed_zone,
        failed_disks=failed,
    )
    if plan.fault_plan is not None:
        cluster.install_faults(plan.fault_plan)
    elif plan.fault_model is not None:
        fault_rng = hub.fresh("faults", scheme_name, trial)
        cluster.install_faults(
            plan.fault_model.sample_plan(
                fault_rng, plan.pool, plan.fault_horizon_s, n_filers=cluster.n_filers
            )
        )
    else:
        cluster.install_faults(None)
    if cluster.faults is not None and cluster.tracer.enabled:
        cluster.faults.emit_trace(cluster.tracer)
    name = f"f-{scheme_name}-{trial}"
    if plan.mode == "read":
        scheme.prepare(name, trial)
        return _engine_read(scheme, name, trial, engine)
    elif plan.mode == "write":
        return _engine_write(scheme, name, trial, engine)
    elif plan.mode == "raw":
        _engine_write(scheme, name, trial, engine)
        env_rng2 = hub.fresh("env2", scheme_name, trial)
        cluster.redraw_disk_states(
            env_rng2,
            layout=plan.layout,
            background_intervals=plan.bg_intervals(env_rng2),
            fixed_zone=plan.fixed_zone,
        )
        # Competing traffic between the write and the later read ages
        # the shared filesystem caches (§6.3.3).
        cluster.age_caches(plan.cache_aging_window_s)
        return _engine_read(scheme, name, trial, engine)
    raise ValueError(f"unknown mode {plan.mode!r}")


#: Simulated idle gap between consecutive trials on the traced timeline —
#: keeps trials visually separate in chrome://tracing.
TRACE_TRIAL_GAP_S = 0.05


def run_scheme(plan: TrialPlan, scheme_name: str, tracer=None) -> list[AccessResult]:
    """Run all trials of one scheme under ``plan``.

    ``tracer`` defaults to the ambient tracer installed with
    :func:`repro.obs.use_tracer` (the no-op tracer otherwise).  With a live
    tracer, each trial lands at a distinct place on one global simulated
    timeline: the tracer's offset starts trial t where trial t-1 ended,
    :data:`TRACE_TRIAL_GAP_S` later, so the trial-local times every layer
    records map onto it.  The next run continues where this one ends.

    The plan's ``engine`` field picks the clock: ``"event"`` runs every
    access on the event-driven reference engine instead of the closed
    form — same trial structure, same environment redraws.
    """
    engine = plan.engine
    cls = scheme_class(scheme_name)  # raises ValueError for unknown names
    tracer = tracer if tracer is not None else current_tracer()
    hub = RngHub(plan.seed)
    cluster = Cluster(
        n_disks=plan.pool,
        disks_per_filer=C.DISKS_PER_FILER,
        rtt_s=plan.rtt_s,
        fs_cache_bytes=plan.fs_cache_bytes,
        cache_line_bytes=plan.access.block_bytes,
        tracer=tracer,
    )
    scheme = cls(cluster, plan.access, hub=hub)
    traced = tracer.enabled
    base = tracer.offset if traced else 0.0
    elapsed = 0.0  # where the next trial starts, relative to ``base``
    results: list[AccessResult] = []
    for trial in range(plan.trials):
        if traced:
            tracer.offset = base + elapsed
        result = _run_trial(plan, scheme, cluster, hub, scheme_name, trial, engine)
        results.append(result)
        lat = result.latency_s
        elapsed += (lat if 0.0 < lat < math.inf else 0.0) + TRACE_TRIAL_GAP_S
    if traced:
        tracer.offset = base + elapsed
    return results


def run_cells(cells: Iterable[tuple]) -> list:
    """Run ``(plan, scheme)`` cells as one batch; return their results in order.

    Each cell goes to the ambient executor (:func:`repro.exec.use_executor`)
    as one :class:`repro.exec.job.Job` — sequential and uncached by default,
    process-parallel and memoized when the CLI installs one.  A
    :class:`TrialPlan` cell yields its ``AccessResult`` list, a
    :class:`repro.serve.service.ServePlan` cell its ``ServeReport``.
    """
    from repro.exec import Job, current_executor

    return current_executor().run_jobs([Job(plan, name) for plan, name in cells])


def run_point(
    plan: TrialPlan, schemes: Sequence[str] = C.ALL_SCHEMES
) -> dict[str, MetricSummary]:
    """Run every scheme at one configuration point (one :func:`run_cells` batch)."""
    batches = run_cells((plan, name) for name in schemes)
    return {name: summarize(results) for name, results in zip(schemes, batches)}


@dataclass
class ExperimentResult:
    """A complete figure/table reproduction: series over a swept variable."""

    experiment_id: str
    title: str
    x_label: str
    xs: list
    summaries: Mapping[str, list[MetricSummary]]

    def series(self, metric: str) -> dict[str, list[float]]:
        return {
            name: [getattr(s, metric) for s in col]
            for name, col in self.summaries.items()
        }

    def text(self, bars: bool = True) -> str:
        from repro.metrics.reporting import TEXT_METRICS, format_bars, format_series

        blocks = []
        for metric, label in TEXT_METRICS:
            blocks.append(
                format_series(
                    f"{self.title} — {label}",
                    self.x_label,
                    self.xs,
                    self.series(metric),
                )
            )
        if bars:
            blocks.append(
                format_bars(
                    f"{self.title} — bandwidth profile",
                    self.series("bandwidth_mbps"),
                    self.xs,
                )
            )
        return "\n\n".join(blocks)


def sweep(
    experiment_id: str,
    title: str,
    x_label: str,
    xs: Sequence,
    plan_for,
    schemes: Sequence[str] = C.ALL_SCHEMES,
) -> ExperimentResult:
    """Run ``plan_for(x)`` for every x; collect per-scheme series.

    The whole grid goes to :func:`run_cells` as *one* batch (x-major,
    scheme-minor — the order the sequential loop used), so a parallel
    executor can overlap every cell of the sweep, not just one point's.
    """
    xs = list(xs)
    batches = run_cells((plan_for(x), name) for x in xs for name in schemes)
    summaries: dict[str, list[MetricSummary]] = {name: [] for name in schemes}
    it = iter(batches)
    for _x in xs:
        for name in schemes:
            summaries[name].append(summarize(next(it)))
    return ExperimentResult(experiment_id, title, x_label, xs, summaries)
