"""Trial runner: one (scheme, configuration) point -> MetricSummary.

Each trial redraws the per-disk random state (in-disk layout, zone,
competitive load — §6.2.5's sources of variation), randomly selects the
access's disks, and runs the scheme's read and/or write procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.accesscore.result import AccessConfig, AccessResult
from repro.cluster.server import Cluster
from repro.core.pipeline import run_access, scheme_class
from repro.disk.workload import InDiskLayout
from repro.experiments import config as C
from repro.metrics.stats import MetricSummary, summarize
from repro.obs.tracer import current_tracer
from repro.sim.core import Environment
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
    fault_plan: Optional[object] = None
    #: Stochastic fault storm: a :class:`repro.faults.model.FaultModel`
    #: sampled per (scheme, trial) from its own seeded stream, so fault
    #: draws never perturb the other random streams.  Mutually exclusive
    #: with ``fault_plan``.
    fault_model: Optional[object] = None
    #: Sampling horizon (simulated seconds) for ``fault_model`` storms.
    fault_horizon_s: float = 60.0
    #: Simulation engine: ``closed`` (vectorised closed form) or ``event``
    #: (the event-driven reference engine).  Defaults from ``REPRO_ENGINE``
    #: (the runner's ``--engine`` flag sets it); an explicit ``engine=``
    #: argument to :func:`run_scheme` still overrides the plan.
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


def run_scheme(
    plan: TrialPlan, scheme_name: str, tracer=None, engine: str | None = None
) -> list[AccessResult]:
    """Run all trials of one scheme under ``plan``.

    ``tracer`` defaults to the ambient tracer installed with
    :func:`repro.obs.use_tracer` (the no-op tracer otherwise).  With a live
    tracer, trials are sequenced by a process on the DES kernel so every
    trial's events land at a distinct place on one global simulated
    timeline — and the kernel's own process/event instrumentation appears
    in the trace alongside drive, filer and scheme spans.

    ``engine="event"`` runs every access on the event-driven reference
    engine instead of the closed form — same trial structure, same
    environment redraws, different clock.  ``None`` (the default) takes
    the plan's ``engine`` field, which in turn defaults from
    ``REPRO_ENGINE`` / the runner's ``--engine`` flag.
    """
    if engine is None:
        engine = plan.engine
    if engine not in ("closed", "event"):
        raise ValueError(f"unknown engine {engine!r}")
    cls = scheme_class(scheme_name)  # raises ValueError for unknown names
    tracer = tracer if tracer is not None else current_tracer()
    access = run_access(cls, plan.access)
    hub = RngHub(plan.seed)
    cluster = Cluster(
        n_disks=plan.pool,
        disks_per_filer=C.DISKS_PER_FILER,
        rtt_s=plan.rtt_s,
        fs_cache_bytes=plan.fs_cache_bytes,
        cache_line_bytes=access.block_bytes,
        tracer=tracer,
    )
    scheme = cls(cluster, access, hub=hub)
    results: list[AccessResult] = []

    if not tracer.enabled:
        for trial in range(plan.trials):
            results.append(
                _run_trial(plan, scheme, cluster, hub, scheme_name, trial, engine)
            )
        return results

    # Traced run: a DES driver process advances the virtual clock past each
    # trial's latency, placing trial t at the global time where trial t-1
    # ended.  Trial-internal emitters use trial-local times, mapped onto
    # the global timeline via the tracer offset; the kernel always emits
    # while offset == base, so its env-relative times line up exactly.
    base = tracer.offset
    env = Environment(tracer=tracer)

    def one_trial(trial: int):
        tracer.offset = base + env.now
        try:
            result = _run_trial(
                plan, scheme, cluster, hub, scheme_name, trial, engine
            )
        finally:
            tracer.offset = base
        results.append(result)
        lat = result.latency_s
        span = lat if np.isfinite(lat) and lat > 0 else 0.0
        yield env.timeout(span + TRACE_TRIAL_GAP_S)

    def driver():
        for trial in range(plan.trials):
            yield env.process(one_trial(trial), name=f"{scheme_name}/trial{trial}")

    env.process(driver(), name=f"run:{scheme_name}")
    env.run()
    # Next scheme (or experiment) continues after this run on the timeline.
    tracer.offset = base + env.now
    return results


def run_point(
    plan: TrialPlan, schemes: Sequence[str] = C.ALL_SCHEMES, tracer=None
) -> dict[str, MetricSummary]:
    """Run every scheme at one configuration point.

    Submits one :class:`repro.exec.job.Job` per scheme through the ambient
    executor (:func:`repro.exec.use_executor`) — sequential and uncached by
    default, process-parallel and memoized when the CLI installs one.
    """
    from repro.exec.engine import current_executor
    from repro.exec.job import Job

    jobs = [Job(plan, name) for name in schemes]
    batches = current_executor().run_jobs(jobs, tracer=tracer)
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
    tracer=None,
) -> ExperimentResult:
    """Run ``plan_for(x)`` for every x; collect per-scheme series.

    The whole grid goes to the ambient executor as *one* batch (x-major,
    scheme-minor — the order the sequential loop used), so a parallel
    executor can overlap every cell of the sweep, not just one point's.
    """
    from repro.exec.engine import current_executor
    from repro.exec.job import Job

    xs = list(xs)
    jobs = [Job(plan_for(x), name) for x in xs for name in schemes]
    batches = current_executor().run_jobs(jobs, tracer=tracer)
    summaries: dict[str, list[MetricSummary]] = {name: [] for name in schemes}
    it = iter(batches)
    for _x in xs:
        for name in schemes:
            summaries[name].append(summarize(next(it)))
    return ExperimentResult(experiment_id, title, x_label, xs, summaries)
