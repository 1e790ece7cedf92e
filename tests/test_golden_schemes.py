"""Differential goldens: the policy refactor must be bit-identical.

The golden file pins every registered scheme's complete ``AccessResult``
(including ``extra``) for read, write and raw accesses, with no faults and
under the reference fault storm of :mod:`tests.test_faults_golden`.  It was
generated at the pre-refactor seed commit; any numeric drift introduced by
the placement/dispatch/completion/reaction decomposition shows up as a
diff here.  Regenerate deliberately with
``PYTHONPATH=src python -m tests.make_golden``.
"""

import json
import pathlib

import numpy as np

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.core import SCHEMES
from repro.experiments.harness import TrialPlan, run_scheme
from repro.faults import FaultPlan
from tests.test_faults_golden import STORM_SCENARIO

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_schemes.json"

CFG = AccessConfig(data_bytes=32 * MB, block_bytes=1 * MB, n_disks=8, redundancy=3.0)
MODES = ("read", "write", "raw")
FAULTS = ("none", "storm")


def _clean(value):
    """Numpy scalars/arrays -> plain python; dict keys -> str (JSON shape)."""
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_clean(v) for v in value.tolist()]
    return value


def _result_dict(r) -> dict:
    return _clean(
        {
            "latency_s": r.latency_s,
            "data_bytes": r.data_bytes,
            "network_bytes": r.network_bytes,
            "disk_blocks": r.disk_blocks,
            "blocks_received": r.blocks_received,
            "cache_hits": r.cache_hits,
            "rounds": r.rounds,
            "extra": r.extra,
        }
    )


def build_scheme_reference() -> dict:
    """Exactly the runs the golden file was generated from.

    Accesses that raise (e.g. ``raw`` reads of a write that fail-stopped
    and never registered its file) are pinned by exception type: the
    refactor must fail the same way, not just succeed the same way.
    """
    fault_plans = {
        "none": None,
        "storm": FaultPlan.from_scenario(STORM_SCENARIO),
    }
    out: dict = {}
    for name in SCHEMES:
        per_scheme: dict = {}
        for mode in MODES:
            for fault in FAULTS:
                plan = TrialPlan(
                    access=CFG,
                    mode=mode,
                    pool=8,
                    rtt_s=0.001,
                    seed=7,
                    trials=2,
                    fault_plan=fault_plans[fault],
                )
                key = f"{mode}/{fault}"
                try:
                    results = run_scheme(plan, name)
                except Exception as exc:  # pinned, not ignored
                    per_scheme[key] = {"error": type(exc).__name__}
                else:
                    per_scheme[key] = [_result_dict(r) for r in results]
        out[name] = per_scheme
    return out


def test_scheme_golden_matches():
    assert GOLDEN.exists(), (
        "golden file missing; run PYTHONPATH=src python -m tests.make_golden"
    )
    golden = json.loads(GOLDEN.read_text())
    assert build_scheme_reference() == golden


def test_golden_covers_every_registered_scheme():
    golden = json.loads(GOLDEN.read_text())
    assert set(SCHEMES) == {
        "raid0", "rraid-s", "rraid-a", "robustore",
        "raid5", "raid0+1", "robustore-rs",
    }
    assert set(golden) == set(SCHEMES)
    for per_scheme in golden.values():
        assert set(per_scheme) == {f"{m}/{f}" for m in MODES for f in FAULTS}


def test_pool_execution_bit_identical_for_every_composition():
    """Worker-pool execution must be byte-identical to sequential.

    One job per registered composition, run once in-process and once over
    a two-worker pool; the canonical result JSON (the cache / cross-process
    currency of :mod:`repro.exec`) must match byte for byte.
    """
    from repro.core.policy.compose import COMPOSITIONS
    from repro.exec import Executor, Job, results_to_json

    plan = TrialPlan(access=CFG, pool=8, rtt_s=0.001, seed=7, trials=2)
    jobs = [Job(plan, name) for name in COMPOSITIONS]
    sequential = Executor(jobs=1, store=None).run_jobs(jobs)
    pooled = Executor(jobs=2, store=None).run_jobs(jobs)
    for job, seq, par in zip(jobs, sequential, pooled):
        assert results_to_json(seq) == results_to_json(par), job.scheme_name
