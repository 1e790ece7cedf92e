"""Shared invariants across the placement x dispatch x completion grid.

Every registered composition — plus two ad-hoc cross-products assembled
here from the registry's own layer singletons, proving the grid composes
beyond the registered points — must satisfy the same contracts:

* reads and writes complete on a healthy cluster;
* the completion tracker consumes arrivals in non-decreasing time order
  (the ``observe(t, block_id)`` hook sees a monotone timeline);
* when a composition reports an arrival order, it is duplicate-free and
  exactly as long as ``blocks_received``;
* the tracer's byte-flow ledger reconciles with the ``AccessResult``
  (``consumed + cancelled == network``, ledger io_overhead == result);
* the filer links' byte counters sum to the read's ``network_bytes`` on
  both engines, with a cold and with a write-warmed filer cache;
* policies are stateless singletons, so identical seeds give identical
  results no matter which composition ran before (the runtime complement
  of lint rule SIM007).

Also covers the :class:`~repro.experiments.harness.TrialPlan` field
validation added with the layered architecture.
"""

import dataclasses

import numpy as np
import pytest

from repro.accesscore.events import event_read
from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.cluster.server import Cluster
from repro.core.pipeline import PolicyScheme, run_access, scheme_class
from repro.core.policy.compose import COMPOSITIONS, SchemeSpec
from repro.core.policy.dispatch import AdaptiveDispatch
from repro.experiments.config import DISKS_PER_FILER
from repro.experiments.harness import TrialPlan, _run_trial, run_scheme
from repro.obs import TraceReport, Tracer
from repro.sim.rng import RngHub

CFG = AccessConfig(data_bytes=16 * MB, block_bytes=1 * MB, n_disks=8, redundancy=3.0)


def _layers(name):
    return COMPOSITIONS[name]


#: Grid points with no registry entry, assembled from the shared layer
#: singletons: the dispatch axis varied over a striped layout, and the
#: reaction axis varied over a replicated one.
EXTRA_SPECS = {
    "striped+adaptive": SchemeSpec(
        "striped+adaptive",
        _layers("raid0").placement,
        _layers("rraid-a").dispatch,
        _layers("raid0").completion,
        _layers("raid0").reaction,
        _layers("raid0").write,
        traced=False,
        redundancy_override=0.0,
    ),
    "rotated+abort": SchemeSpec(
        "rotated+abort",
        _layers("rraid-s").placement,
        _layers("rraid-s").dispatch,
        _layers("rraid-s").completion,
        _layers("raid0").reaction,
        _layers("rraid-s").write,
        traced=False,
    ),
}

GRID = sorted(COMPOSITIONS) + sorted(EXTRA_SPECS)


def _class_for(name, spec_override=None):
    if spec_override is not None:
        return type(
            f"Matrix[{name}]", (PolicyScheme,), {"name": name, "spec": spec_override}
        )
    if name in EXTRA_SPECS:
        return _class_for(name, EXTRA_SPECS[name])
    return scheme_class(name)


class _RecordingTracker:
    """Delegating tracker proxy that records every observed arrival time."""

    def __init__(self, inner, times):
        self._inner = inner
        self._times = times

    def observe(self, t, block_id):
        self._times.append(t)
        inner_observe = getattr(self._inner, "observe", None)
        if inner_observe is not None:
            inner_observe(t, block_id)
        else:
            self._inner.add(block_id)

    def add(self, block_id):
        self._inner.add(block_id)

    def __getattr__(self, attr):  # complete, fill_times, decoder, ...
        return getattr(self._inner, attr)


class _RecordingCompletion:
    """Wraps a completion policy; its trackers log arrival timestamps."""

    def __init__(self, inner, times):
        self._inner = inner
        self._times = times

    def tracker(self, scheme, record, plan):
        return _RecordingTracker(self._inner.tracker(scheme, record, plan), self._times)

    def finish(self, scheme, tracker, t_fill):
        return self._inner.finish(scheme, tracker, t_fill)

    def extras(self, scheme, tracker, t_fill, t_done):
        return self._inner.extras(scheme, tracker, t_fill, t_done)

    def __getattr__(self, attr):  # wants_order, trace, ...
        return getattr(self._inner, attr)


def run_round_trip(name, spec_override=None, trial=0, seed=11):
    cls = _class_for(name, spec_override)
    cfg = run_access(cls, CFG)
    cluster = Cluster(n_disks=16, rtt_s=0.001)
    hub = RngHub(seed)
    scheme = cls(cluster, cfg, hub=hub)
    cluster.redraw_disk_states(hub.fresh("env", name, trial))
    wrote = scheme.write("f", trial)
    read = scheme.read("f", trial)
    return wrote, read


@pytest.mark.parametrize("name", GRID)
def test_composition_round_trips(name):
    wrote, read = run_round_trip(name)
    for r in (wrote, read):
        assert np.isfinite(r.latency_s) and r.latency_s > 0
        assert r.network_bytes > 0
    assert read.bandwidth_mbps > 0
    assert read.io_overhead >= 0.0
    assert read.blocks_received > 0


@pytest.mark.parametrize("name", GRID)
def test_tracker_consumes_arrivals_monotonically(name):
    base = EXTRA_SPECS.get(name, COMPOSITIONS.get(name))
    times: list[float] = []
    spec = dataclasses.replace(
        base, completion=_RecordingCompletion(base.completion, times)
    )
    _, read = run_round_trip(name, spec_override=spec)
    assert times, "the completion tracker never saw an arrival"
    assert all(b >= a for a, b in zip(times, times[1:]))
    if base.completion.wants_order:
        order = read.extra["arrival_order"]
        assert len(order) == len(set(order)) == read.blocks_received


@pytest.mark.parametrize("name", sorted(COMPOSITIONS))
def test_byte_ledger_reconciles(name):
    tracer = Tracer()
    plan = TrialPlan(access=CFG, mode="read", pool=16, trials=1, seed=7)
    (result,) = run_scheme(plan, name, tracer=tracer)
    report = TraceReport.from_tracer(tracer)
    assert report.network_bytes == result.network_bytes
    assert report.consumed_bytes + report.cancelled_bytes == report.network_bytes
    assert report.cancelled_bytes >= 0
    spec = COMPOSITIONS[name]
    if spec.traced or isinstance(spec.dispatch, AdaptiveDispatch):
        # Untraced speculative compositions skip the scheme-level data
        # accounting (the generic read trace), by design.
        assert report.data_bytes == result.data_bytes == CFG.data_bytes
        assert report.io_overhead == result.io_overhead


def read_link_bytes(name, engine, warm, seed=3):
    """One read's result and the bytes its filer links counted."""
    cls = scheme_class(name)
    cfg = run_access(cls, CFG)
    cluster = Cluster(
        n_disks=16, rtt_s=0.001, fs_cache_bytes=512 * MB if warm else 0,
        cache_line_bytes=cfg.block_bytes,
    )
    hub = RngHub(seed)
    scheme = cls(cluster, cfg, hub=hub)
    cluster.redraw_disk_states(hub.fresh("env", name, 0))
    if warm:
        scheme.write("f", 0)  # write-through fills the filer caches
    else:
        scheme.prepare("f", 0)
    cluster.reset_network_counters()
    if engine == "event":
        result = event_read(scheme, "f", trial=0).result
    else:
        result = scheme.read("f", 0)
    return result, cluster.total_network_bytes


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("engine", ["closed", "event"])
@pytest.mark.parametrize("name", sorted(COMPOSITIONS))
def test_link_bytes_reconcile_with_network_bytes(name, engine, warm):
    """Every link is charged what its disks sent: hits and hand-offs too."""
    result, link_bytes = read_link_bytes(name, engine, warm)
    assert link_bytes == result.network_bytes > 0
    if warm:
        assert result.cache_hits > 0


def test_link_bytes_reconcile_with_fractional_handoffs():
    """A victim's partial block before a hand-off lands on its own link.

    Four disks and a short round trip: the closed form hands in-flight
    blocks over mid-transfer, so some reads' network bytes are not a
    whole number of blocks — and the links still sum to them exactly.
    """
    cfg = AccessConfig(data_bytes=8 * MB, block_bytes=1 * MB, n_disks=4, redundancy=2.0)
    plan = TrialPlan(access=cfg, mode="read", pool=16, rtt_s=0.0001, seed=0, trials=10)
    hub = RngHub(plan.seed)
    cluster = Cluster(
        n_disks=plan.pool, disks_per_filer=DISKS_PER_FILER, rtt_s=plan.rtt_s
    )
    scheme = scheme_class("rraid-a")(cluster, cfg, hub=hub)
    fractional = 0
    for trial in range(plan.trials):
        cluster.reset_network_counters()
        result = _run_trial(plan, scheme, cluster, hub, "rraid-a", trial)
        assert cluster.total_network_bytes == result.network_bytes
        fractional += result.network_bytes % cfg.block_bytes != 0
    assert fractional > 0


def test_policies_are_stateless_across_runs():
    """Same seed, same results — regardless of what ran in between."""
    first = {name: run_round_trip(name)[1].latency_s for name in GRID}
    second = {name: run_round_trip(name)[1].latency_s for name in reversed(GRID)}
    assert first == second


# ---------------------------------------------------------------------------
# TrialPlan validation (added with the layered refactor)


def test_trial_plan_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        TrialPlan(access=CFG, mode="scan")


def test_trial_plan_rejects_unknown_background():
    with pytest.raises(ValueError, match="unknown background"):
        TrialPlan(access=CFG, background="bursty")


def test_trial_plan_rejects_fault_plan_and_model_together():
    with pytest.raises(ValueError, match="mutually exclusive"):
        TrialPlan(access=CFG, fault_plan=object(), fault_model=object())
