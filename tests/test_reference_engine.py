"""Cross-validation: event-driven reference engine vs the closed form.

The two engines wrap the same access core — one policy layer, one tracker
family, one epilogue — so every composition must run under both, and the
engines must agree statistically (they share the environment draws but
not the per-block service draws, so agreement is on distributions, not
bits).  The differential matrix covers all ten compositions under a
fault-free environment and under the golden fault storm, reads and
writes, closed-form vs event-driven.
"""

import numpy as np
import pytest

from repro.accesscore.events import event_read, event_write
from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.cluster.server import Cluster
from repro.core.pipeline import COMPOSITIONS, scheme_class
from repro.experiments.harness import TrialPlan, run_scheme
from repro.faults import FaultPlan
from repro.sim.rng import RngHub

CFG = AccessConfig(data_bytes=32 * MB, block_bytes=1 * MB, n_disks=8, redundancy=3.0)

#: The golden storm (tests/test_faults_golden.py): a slowdown, a degraded
#: link, a permanent fail-stop, a transient fail-stop and a filer crash.
STORM_SCENARIO = [
    {"at": 0.0, "fault": "disk_slow", "disk": 2, "factor": 3.0, "duration": 2.0},
    {"at": 0.0, "fault": "link_degrade", "filer": 0, "extra_s": 0.01,
     "duration": 5.0},
    {"at": 0.05, "fault": "disk_fail", "disk": 0},
    {"at": 0.1, "fault": "disk_fail", "disk": 1, "duration": 0.5},
    {"at": 0.2, "fault": "filer_crash", "filer": 0, "duration": 0.3},
]

#: Compositions whose redundancy lets them survive the storm in both
#: engines at this configuration (re-speculation over rateless codes;
#: the grouped-RS variants lose whole groups to the permanent fail-stop
#: on some trials, in both engines).
STORM_SURVIVORS = ("robustore",)

#: Compositions with no redundancy at all: the storm's permanent
#: fail-stop kills every trial in both engines.
STORM_CASUALTIES = ("raid0",)

#: Compositions where the engines' mean read latencies track closely
#: (single-round or near-deterministic hand-off structure).  The heavily
#: adaptive mirrored layouts diverge more: the event engine's speculative
#: duplicates beat the closed form's fractional hand-offs on some draws.
TIGHT_SCHEMES = ("raid0", "raid5", "robustore", "robustore-rs", "rraid-s",
                 "lt+adaptive", "rs+adaptive")

TRIALS = 3


def plan_for(fault: bool, mode: str = "read") -> TrialPlan:
    return TrialPlan(
        access=CFG,
        mode=mode,
        pool=8,
        rtt_s=0.001,
        seed=7,
        trials=TRIALS,
        fault_plan=FaultPlan.from_scenario(STORM_SCENARIO) if fault else None,
    )


def run_both(name: str, fault: bool, mode: str = "read"):
    plan = plan_for(fault, mode)
    closed = run_scheme(plan, name, engine="closed")
    event = run_scheme(plan, name, engine="event")
    return closed, event


def make_scheme(name, trial=0, seed=5, bg=None, pool=16):
    cluster = Cluster(n_disks=pool, rtt_s=0.002)
    hub = RngHub(seed)
    scheme = scheme_class(name)(cluster, CFG, hub=hub)
    cluster.redraw_disk_states(
        hub.fresh("env", name, trial), background_intervals=bg
    )
    return scheme


@pytest.mark.parametrize("fault", [False, True], ids=["no-fault", "storm"])
@pytest.mark.parametrize("name", sorted(COMPOSITIONS))
def test_differential_read_matrix(name, fault):
    """Every composition reads under both engines, faulted or not."""
    closed, event = run_both(name, fault)
    assert len(closed) == len(event) == TRIALS
    for c, e in zip(closed, event):
        # Identical result shape and config-side fields.
        assert e.data_bytes == c.data_bytes == CFG.data_bytes
        # Nothing finishes before the metadata open.
        assert e.latency_s > 0.005
        assert c.latency_s > 0.005
        # Accounting invariants on the event engine's own books.
        assert e.network_bytes >= 0
        assert e.blocks_received >= 0
        if np.isfinite(e.latency_s):
            assert e.blocks_received >= CFG.k or name == "raid5"
            assert e.network_bytes >= CFG.data_bytes
    if not fault:
        c_lat = [r.latency_s for r in closed]
        e_lat = [r.latency_s for r in event]
        assert all(np.isfinite(v) for v in c_lat + e_lat)
        if name in TIGHT_SCHEMES:
            ratio = np.mean(e_lat) / np.mean(c_lat)
            assert 0.5 < ratio < 2.0, (c_lat, e_lat)
    else:
        if name in STORM_SURVIVORS:
            assert all(np.isfinite(r.latency_s) for r in closed)
            assert all(np.isfinite(r.latency_s) for r in event)
        if name in STORM_CASUALTIES:
            assert all(not np.isfinite(r.latency_s) for r in closed)
            assert all(not np.isfinite(r.latency_s) for r in event)


@pytest.mark.parametrize("name", sorted(COMPOSITIONS))
def test_differential_write_matrix(name):
    """Every composition writes under both engines (fault-free)."""
    closed, event = run_both(name, fault=False, mode="write")
    for c, e in zip(closed, event):
        assert np.isfinite(c.latency_s)
        assert np.isfinite(e.latency_s)
        assert e.network_bytes >= CFG.data_bytes
        # Writes push at least the original volume to disks.
        assert e.disk_blocks >= CFG.k
    if name in TIGHT_SCHEMES:
        ratio = np.mean([r.latency_s for r in event]) / np.mean(
            [r.latency_s for r in closed]
        )
        assert 0.3 < ratio < 3.0


def test_engines_match_in_mean():
    """Engines agree in distribution: compare trial-mean read latencies."""
    e_lats, c_lats = [], []
    for trial in range(6):
        scheme = make_scheme("robustore", trial=trial)
        scheme.prepare("f", trial)
        e_lats.append(event_read(scheme, "f", trial=trial).latency_s)
        scheme2 = make_scheme("robustore", trial=trial)
        scheme2.prepare("f", trial)
        c_lats.append(scheme2.read("f", trial).latency_s)
    assert np.mean(e_lats) == pytest.approx(np.mean(c_lats), rel=0.35), (
        e_lats, c_lats,
    )


def test_event_write_registers_replayable_placement():
    """A speculative event-driven write leaves a record either engine reads."""
    scheme = make_scheme("robustore")
    w = event_write(scheme, "g", trial=0)
    assert np.isfinite(w.latency_s)
    record = scheme._record("g")
    # The rateless write commits an unbalanced placement with overshoot.
    sizes = [len(p) for p in record.placement]
    assert sum(sizes) == w.blocks_received >= CFG.n_coded
    assert record.extra.get("speculative") is True
    # The closed form replays the event-written placement...
    closed = scheme.read("g", 0)
    assert np.isfinite(closed.latency_s)
    # ...and so does the event engine.
    again = event_read(scheme, "g", trial=1)
    assert np.isfinite(again.latency_s)


def test_multi_client_contention():
    """More closed-loop clients on the same drives -> no client gets faster."""
    scheme = make_scheme("robustore")
    scheme.prepare("f", 0)
    solo = event_read(scheme, "f", trial=0, n_clients=1)
    scheme4 = make_scheme("robustore")
    scheme4.prepare("f", 0)
    packed = event_read(scheme4, "f", trial=0, n_clients=4)
    assert len(packed.per_client) == 4
    assert all(np.isfinite(v) for v in packed.per_client.values())
    # Shared queues: the slowest of 4 clients is no faster than 1 alone.
    assert max(packed.per_client.values()) >= solo.latency_s


def test_background_load_slows_reads():
    scheme = make_scheme("robustore")
    scheme.prepare("f", 0)
    quiet = event_read(scheme, "f", trial=0)
    loaded_scheme = make_scheme(
        "robustore", bg={d: 0.01 for d in range(16)}
    )
    loaded_scheme.prepare("f", 0)
    loaded = event_read(loaded_scheme, "f", trial=0)
    assert np.isfinite(loaded.latency_s)
    assert loaded.latency_s > quiet.latency_s


def test_unknown_scheme_and_engine_raise():
    with pytest.raises(ValueError):
        scheme_class("no-such-scheme")
    with pytest.raises(ValueError):
        run_scheme(plan_for(False), "robustore", engine="warp")
