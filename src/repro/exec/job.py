"""The job model: one ``(plan, scheme)`` cell as canonical, hashable data.

A :class:`Job` is the unit the execution engine schedules, caches and
ships across process boundaries.  Its payload is a *canonical JSON
encoding* of the full :class:`~repro.experiments.harness.TrialPlan`
(including the nested :class:`~repro.accesscore.result.AccessConfig`, in-disk
layout, fault plan/model) plus the scheme name; its cache key is a
:func:`repro.sim.rng.stable_digest` of that payload folded with the run's
env knobs (``REPRO_TRIALS`` / ``REPRO_DATA_MB``) and a code-version salt.

Determinism contract: a payload contains *only* values that reproduce the
simulation — no wall-clock times, no PIDs, no per-process state (enforced
by lint rule SIM001).  Equal payloads therefore run bit-identically in
any process, which is what makes the result cache and the worker pool
safe.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from repro.accesscore.result import AccessConfig, AccessResult
from repro.disk.workload import InDiskLayout
from repro.experiments import config as C
from repro.experiments.harness import TrialPlan
from repro.faults.model import FaultModel
from repro.faults.plan import FaultPlan
from repro.sim.rng import stable_digest

#: Version salt folded into every cache key.  Bump this whenever a change
#: alters simulation *results* (not just performance), so stale cache
#: entries can never be served for new semantics; ``python -m repro.exec gc``
#: sweeps entries written under older salts.
CODE_SALT = "exec-v1"


def canonical_json(obj) -> str:
    """The one JSON rendering used for payloads, cache entries and keys.

    Sorted keys, no whitespace — byte-identical for equal values, so
    string equality *is* value equality for anything encoded with it.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# TrialPlan <-> canonical dict

#: TrialPlan fields needing structured encoding; every other field must be
#: a plain scalar (guarded below, so adding a field to TrialPlan without
#: teaching the codec is an immediate, loud failure — not a silent cache
#: corruption).
_STRUCTURED_FIELDS = {"access", "layout", "fault_plan", "fault_model"}


def _encode_flat_dataclass(value) -> dict:
    """Scalar-field dataclasses (AccessConfig, InDiskLayout, FaultModel)."""
    out = {}
    for f in dataclasses.fields(value):
        v = getattr(value, f.name)
        if not isinstance(v, (int, float, str, bool, type(None))):
            raise TypeError(
                f"{type(value).__name__}.{f.name} is not a scalar "
                f"({type(v).__name__}); teach repro.exec.job its encoding"
            )
        out[f.name] = v
    return out


def encode_plan(plan: TrialPlan, scheme_name: str) -> dict:
    """The canonical payload dict for one job."""
    out: dict = {"scheme": str(scheme_name)}
    for f in dataclasses.fields(TrialPlan):
        v = getattr(plan, f.name)
        if f.name == "access":
            out[f.name] = _encode_flat_dataclass(v)
        elif f.name == "layout":
            out[f.name] = None if v is None else _encode_flat_dataclass(v)
        elif f.name == "fault_plan":
            out[f.name] = None if v is None else v.describe()
        elif f.name == "fault_model":
            out[f.name] = None if v is None else _encode_flat_dataclass(v)
        elif isinstance(v, (int, float, str, bool, type(None))):
            out[f.name] = v
        else:
            raise TypeError(
                f"TrialPlan.{f.name} is not a scalar ({type(v).__name__}); "
                "teach repro.exec.job its encoding"
            )
    return out


def decode_plan(payload: dict) -> tuple[TrialPlan, str]:
    """Rebuild ``(plan, scheme_name)`` from :func:`encode_plan` output."""
    data = dict(payload)
    scheme_name = str(data.pop("scheme"))
    known = {f.name for f in dataclasses.fields(TrialPlan)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown TrialPlan fields in payload: {sorted(unknown)}")
    kwargs: dict = {}
    for name, value in data.items():
        if name == "access":
            kwargs[name] = AccessConfig(**value)
        elif name == "layout":
            kwargs[name] = None if value is None else InDiskLayout(**value)
        elif name == "fault_plan":
            kwargs[name] = None if value is None else FaultPlan.from_scenario(value)
        elif name == "fault_model":
            kwargs[name] = None if value is None else FaultModel(**value)
        else:
            kwargs[name] = value
    return TrialPlan(**kwargs), scheme_name


# ---------------------------------------------------------------------------
# results <-> canonical JSON

def results_to_json(results: list[AccessResult]) -> str:
    """Canonical JSON of a trial-result list (the byte-identity currency)."""
    return canonical_json([r.to_jsonable() for r in results])


def results_from_json(text: str):
    """Inverse of :func:`results_to_json` (kind-dispatching, see below)."""
    return results_from_jsonable(json.loads(text))


def results_from_jsonable(data):
    """Decode an already-parsed result value (a cache entry's ``results``).

    Trial jobs produce a *list* of access results; other job kinds tag
    their result dict with ``kind`` and decode through their own codec
    (currently ``serve`` -> :class:`repro.serve.slo.ServeReport`).
    """
    if isinstance(data, dict):
        kind = data.get("kind")
        if kind == "serve":
            from repro.serve.slo import ServeReport

            return ServeReport.from_jsonable(data)
        raise ValueError(f"unknown result kind {kind!r}")
    return [AccessResult.from_jsonable(d) for d in data]


# ---------------------------------------------------------------------------
# the job itself

@dataclass(frozen=True)
class Job:
    """One schedulable cell: all trials of ``scheme_name`` under ``plan``."""

    plan: TrialPlan
    scheme_name: str

    def payload(self) -> dict:
        return encode_plan(self.plan, self.scheme_name)

    def payload_json(self) -> str:
        return canonical_json(self.payload())

    def key(self) -> str:
        """Content hash addressing this job's results in the store.

        Folds the code-version salt, the resolved env knobs and the
        canonical payload — equal keys mean bit-identical results.
        """
        return stable_digest(
            CODE_SALT, C.trials(), C.data_mb(), self.payload_json()
        )

    @property
    def label(self) -> str:
        """Short human label for progress lines and failure reports."""
        return f"{self.scheme_name}/{self.plan.mode}×{self.plan.trials}"

    # -- executor hooks -------------------------------------------------------
    def run_traced(self, tracer) -> list[AccessResult]:
        """Traced execution: sequential, on the shared DES timeline."""
        from repro.experiments.harness import run_scheme

        return run_scheme(self.plan, self.scheme_name, tracer=tracer)

    def span_args(self) -> dict:
        """Argument dict for the executor's ``exec.job`` trace span."""
        return {
            "scheme": self.scheme_name,
            "mode": self.plan.mode,
            "trials": self.plan.trials,
        }


def execute_payload(payload_json: str) -> str:
    """Run one job from its canonical payload; return canonical results.

    This is the *entire* worker code path: decode the payload, run it,
    encode the results.  Both the in-process and the pooled executor go
    through this function, so sequential and parallel execution are the
    same code by construction — bit-identity follows from the payload's
    determinism, not from luck.

    Dispatch is on the payload's ``kind`` tag: absent means a trial job
    (:func:`repro.experiments.harness.run_scheme`); ``serve`` runs a
    :mod:`repro.serve` serving cell.
    """
    payload = json.loads(payload_json)
    kind = payload.get("kind")
    if kind == "serve":
        from repro.serve.service import execute_serve_payload

        return execute_serve_payload(payload)
    if kind is not None:
        raise ValueError(f"unknown job kind {kind!r}")
    from repro.experiments.harness import run_scheme
    from repro.obs.tracer import NULL_TRACER

    plan, scheme_name = decode_plan(payload)
    results = run_scheme(plan, scheme_name, tracer=NULL_TRACER)
    return results_to_json(results)


def execute_job(job: Job) -> list[AccessResult]:
    """In-process convenience wrapper: run ``job`` through the codec path."""
    return results_from_json(execute_payload(job.payload_json()))
