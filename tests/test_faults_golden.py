"""Golden regression: a fixed fault scenario must reproduce exact numbers.

The golden file pins every scheme's per-trial latency (and traffic) under
one mixed fault storm.  Any change to the fault transform, the schemes'
reactions, or the underlying service model shows up as a diff here —
regenerate deliberately with ``PYTHONPATH=src python -m tests.make_golden``.
"""

import json
import pathlib

import numpy as np

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.experiments.harness import TrialPlan, run_scheme
from repro.faults import FaultPlan

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_faults.json"

CFG = AccessConfig(data_bytes=32 * MB, block_bytes=1 * MB, n_disks=8, redundancy=3.0)
SCHEMES = ("raid0", "rraid-s", "rraid-a", "robustore")

#: One storm touching every fault kind: a permanent loss, a transient loss,
#: a slowdown, a filer crash (flushing every queue mid-read) and a degraded
#: link.  RobuSTore re-speculates through it; the fixed schemes mostly die.
STORM_SCENARIO = [
    {"at": 0.0, "fault": "disk_slow", "disk": 2, "factor": 3.0, "duration": 2.0},
    {"at": 0.0, "fault": "link_degrade", "filer": 0, "extra_s": 0.01,
     "duration": 5.0},
    {"at": 0.05, "fault": "disk_fail", "disk": 0},
    {"at": 0.1, "fault": "disk_fail", "disk": 1, "duration": 0.5},
    {"at": 0.2, "fault": "filer_crash", "filer": 0, "duration": 0.3},
]


def build_fault_reference() -> dict:
    """Exactly the runs the golden file was generated from."""
    plan = FaultPlan.from_scenario(STORM_SCENARIO)
    base = TrialPlan(access=CFG, pool=8, rtt_s=0.001, seed=7, trials=3,
                     fault_plan=plan)
    out: dict = {"scenario": plan.describe(), "schemes": {}}
    for name in SCHEMES:
        results = run_scheme(base, name)
        out["schemes"][name] = {
            "latency_s": [r.latency_s for r in results],
            "network_bytes": [r.network_bytes for r in results],
            "blocks_received": [r.blocks_received for r in results],
            "rounds": [r.rounds for r in results],
        }
    return out


def test_fault_golden_matches():
    assert GOLDEN.exists(), (
        "golden file missing; run PYTHONPATH=src python -m tests.make_golden"
    )
    golden = json.loads(GOLDEN.read_text())
    assert build_fault_reference() == golden


def test_reference_storm_differentiates_the_schemes():
    """Sanity on the pinned numbers themselves (independent of drift)."""
    ref = build_fault_reference()
    lat = {name: ref["schemes"][name]["latency_s"] for name in SCHEMES}
    # The filer crash flushes every queue: the fixed-layout schemes cannot
    # finish any trial, RobuSTore re-speculates every trial to completion.
    assert all(np.isinf(lat["raid0"]))
    assert all(np.isfinite(lat["robustore"]))
    assert all(r == 2 for r in ref["schemes"]["robustore"]["rounds"])
