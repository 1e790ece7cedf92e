"""Cross-validation: event-driven reference engine vs the closed form.

The two engines wrap the same access core — one policy layer, one tracker
family, one epilogue — so every composition must run under both, and the
engines must agree statistically (they share the environment draws but
not the per-block service draws, so agreement is on distributions, not
bits).  The differential matrix covers all twelve compositions under a
fault-free environment and under the golden fault storm, reads and
writes, closed-form vs event-driven.

The event engine is also pinned bit for bit against itself:
``golden_events.json`` holds its complete results across every
composition (see :func:`build_event_reference`).  Regenerate it
deliberately with ``PYTHONPATH=src python -m tests.make_golden``.
"""

import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from repro.accesscore.events import event_read, event_write
from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.cluster.server import Cluster
from repro.core.pipeline import COMPOSITIONS, scheme_class
from repro.experiments.harness import TrialPlan, run_scheme
from repro.faults import FaultPlan
from repro.obs import Tracer
from repro.sim.rng import RngHub
from tests.test_golden_schemes import _clean, _result_dict

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_events.json"

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
    closed = run_scheme(replace(plan, engine="closed"), name)
    event = run_scheme(replace(plan, engine="event"), name)
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
        e_lats.append(event_read(scheme, "f", trial=trial).result.latency_s)
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
    again = event_read(scheme, "g", trial=1).result
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
    assert max(packed.per_client.values()) >= solo.result.latency_s


def test_background_load_slows_reads():
    scheme = make_scheme("robustore")
    scheme.prepare("f", 0)
    quiet = event_read(scheme, "f", trial=0).result
    loaded_scheme = make_scheme(
        "robustore", bg={d: 0.01 for d in range(16)}
    )
    loaded_scheme.prepare("f", 0)
    loaded = event_read(loaded_scheme, "f", trial=0).result
    assert np.isfinite(loaded.latency_s)
    assert loaded.latency_s > quiet.latency_s


def test_unknown_scheme_and_engine_raise():
    with pytest.raises(ValueError):
        scheme_class("no-such-scheme")
    with pytest.raises(ValueError, match="unknown engine 'warp'"):
        replace(plan_for(False), engine="warp")


# -- the event engine pinned bit for bit ------------------------------------

#: Filer cache for the cache-hit rows: large enough that nothing is ever
#: evicted, so the rows do not depend on the cache's set hashing.
EVENT_CACHE_BYTES = 2048 * MB


def _event_runs(plan: TrialPlan, name: str):
    """``run_scheme`` on the event engine; exceptions pinned by type."""
    try:
        results = run_scheme(replace(plan, engine="event"), name)
    except Exception as exc:  # pinned, not ignored
        return {"error": type(exc).__name__}
    return [_result_dict(r) for r in results]


def build_event_reference() -> dict:
    """Exactly the event-engine runs ``golden_events.json`` pins.

    Every composition for read/write/raw x {no fault, golden storm}; raw
    reads through a warm filer cache (the cache-hit delivery path);
    reads with one and two fail-stopped disks on a 12-disk pool (failed
    drives from the start, RAID-5's degraded and unrecoverable plans);
    three clients sharing one set of drives; and the tracer's counters
    and byte ledger over one traced storm run.
    """
    storm = FaultPlan.from_scenario(STORM_SCENARIO)
    base = TrialPlan(access=CFG, pool=8, rtt_s=0.001, seed=7, trials=2)
    out: dict = {}
    for name in sorted(COMPOSITIONS):
        row: dict = {}
        for mode in ("read", "write", "raw"):
            for fault, fault_plan in (("none", None), ("storm", storm)):
                plan = replace(base, mode=mode, fault_plan=fault_plan)
                row[f"{mode}/{fault}"] = _event_runs(plan, name)
        cached = replace(base, mode="raw", fs_cache_bytes=EVENT_CACHE_BYTES)
        row["raw/cached"] = _event_runs(cached, name)
        for n_failed in (1, 2):
            # Seed 2 puts both of RAID-5's failed disks in one trial's
            # selection and only one in the other's.
            failed = replace(base, pool=12, seed=2, failed_disks=n_failed)
            row[f"read/failed{n_failed}"] = _event_runs(failed, name)
        scheme = make_scheme(name, pool=8)
        scheme.prepare("f", 0)
        shared = event_read(scheme, "f", trial=0, n_clients=3)
        row["read/3clients"] = {
            "result": _result_dict(shared.result),
            "per_client": _clean(shared.per_client),
        }
        out[name] = row
    tracer = Tracer()
    storm_plan = replace(base, fault_plan=storm)
    for name in ("raid0", "rraid-a", "robustore"):
        run_scheme(replace(storm_plan, engine="event"), name, tracer=tracer)
    out["traced_storm"] = {
        "counters": _clean(dict(sorted(tracer.counters.items()))),
        "bytes": _clean(dict(sorted(tracer.bytes_ledger.items()))),
    }
    return out


def test_event_golden_matches():
    assert GOLDEN.exists(), (
        "golden file missing; run PYTHONPATH=src python -m tests.make_golden"
    )
    golden = json.loads(GOLDEN.read_text())
    assert build_event_reference() == golden


def test_event_golden_covers_every_path():
    """The pinned runs reach the paths they are there for."""
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(COMPOSITIONS) | {"traced_storm"}
    cached = golden["robustore"]["raw/cached"]
    assert any(r["cache_hits"] > 0 for r in cached)
    raid5 = golden["raid5"]
    assert any(r["extra"].get("degraded") for r in raid5["read/failed1"])
    failed2 = [bool(r["extra"].get("unrecoverable")) for r in raid5["read/failed2"]]
    assert failed2 == [True, False]
    assert len(golden["rraid-a"]["read/3clients"]["per_client"]) == 3
    counters = golden["traced_storm"]["counters"]
    assert counters["scheme.handoffs"] > 0
    assert counters["scheme.respeculations"] > 0
