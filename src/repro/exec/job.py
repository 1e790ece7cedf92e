"""The job model: one ``(plan, scheme)`` cell as canonical, hashable data.

A :class:`Job` is the unit the execution engine schedules, caches and
ships across process boundaries.  Its plan is a
:class:`~repro.experiments.harness.TrialPlan` (all trials of one scheme)
or a :class:`~repro.serve.service.ServePlan` (one serving cell).  Its
payload is a *canonical JSON encoding* of that plan — nested dataclasses
as field dicts, a fault plan as its declarative scenario — plus the
scheme name, and a ``kind`` tag for every plan type but the trial plan;
its cache key is a :func:`repro.sim.rng.stable_digest` of that payload
folded with the run's env knobs (``REPRO_TRIALS`` / ``REPRO_DATA_MB``)
and a code-version salt.

Determinism contract: a payload contains *only* values that reproduce the
simulation — no wall-clock times, no PIDs, no per-process state (enforced
by lint rule SIM001).  Equal payloads therefore run bit-identically in
any process, which is what makes the result cache and the worker pool
safe.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass
from pathlib import Path

from repro.accesscore.result import AccessResult
from repro.experiments import config as C
from repro.experiments.harness import TrialPlan, run_scheme
from repro.faults.plan import FaultPlan
from repro.obs.tracer import NULL_TRACER
from repro.serve.service import ServePlan, StorageService
from repro.serve.slo import ServeReport
from repro.sim.rng import stable_digest


def source_salt(root: Path | None = None) -> str:
    """Digest of a ``repro`` package tree's source.

    Folds the sorted relative path and the sha256 of every ``.py`` file
    under ``root`` (default: this installed package) through
    :func:`stable_digest`, so any edit to any source file changes it.
    """
    root = Path(__file__).resolve().parents[1] if root is None else Path(root)
    parts: list[str] = []
    for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*.py")):
        parts += [rel, hashlib.sha256((root / rel).read_bytes()).hexdigest()]
    return stable_digest(*parts)


#: Code-version salt folded into every cache key: the package source's
#: digest, computed once at import.  A change to any ``.py`` file under
#: ``repro`` (one that moves results included) makes every cached entry a
#: miss; ``python -m repro.exec gc`` sweeps entries written under older
#: salts.
CODE_SALT = source_salt()


def canonical_json(obj) -> str:
    """The one JSON rendering used for payloads, cache entries and keys.

    Sorted keys, no whitespace — byte-identical for equal values, so
    string equality *is* value equality for anything encoded with it.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# plan <-> canonical dict

def _encode(value):
    """A plan value's payload form: dataclasses become field dicts."""
    if isinstance(value, FaultPlan):
        return value.describe()
    if dataclasses.is_dataclass(value):
        return {
            f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if isinstance(value, (int, float, str, bool, type(None))):
        return value
    raise TypeError(f"{type(value).__name__} has no payload encoding")


def _decode(cls: type, data: dict):
    """Inverse of :func:`_encode` for a dataclass ``cls``, led by its annotations."""
    hints = typing.get_type_hints(cls)
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields in payload: {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        # ``Optional[X]`` names X among its arguments.
        types = (hints[name], *typing.get_args(hints[name]))
        nested = next(
            (t for t in types if t is FaultPlan or dataclasses.is_dataclass(t)), None
        )
        if value is None or nested is None:
            kwargs[name] = value
        elif nested is FaultPlan:
            kwargs[name] = FaultPlan.from_scenario(value)
        else:
            kwargs[name] = _decode(nested, value)
    return cls(**kwargs)


def encode_plan(plan: TrialPlan | ServePlan, scheme_name: str) -> dict:
    """The canonical payload dict for one job: kind tag, scheme, plan fields."""
    kind = _TAGS[type(plan)]
    head = {} if kind is None else {"kind": kind}
    return {**head, "scheme": str(scheme_name), **_encode(plan)}


def decode_plan(payload: dict) -> tuple[TrialPlan | ServePlan, str]:
    """Rebuild ``(plan, scheme_name)`` from :func:`encode_plan` output."""
    plan_type = _kind(payload)[0]
    fields = {k: v for k, v in payload.items() if k not in ("kind", "scheme")}
    return _decode(plan_type, fields), str(payload["scheme"])


# ---------------------------------------------------------------------------
# results <-> canonical JSON (trial jobs)

def results_to_json(results: list[AccessResult]) -> str:
    """Canonical JSON of a trial-result list (the byte-identity currency)."""
    return canonical_json([r.to_jsonable() for r in results])


def results_from_json(text: str) -> list[AccessResult]:
    """Inverse of :func:`results_to_json`."""
    return results_from_jsonable(json.loads(text))


def results_from_jsonable(data: list) -> list[AccessResult]:
    """Decode an already-parsed trial-result list (a cache entry's ``results``)."""
    return [AccessResult.from_jsonable(d) for d in data]


# ---------------------------------------------------------------------------
# job kinds: plan type, runner, result decoder

def _run_trials(plan: TrialPlan, scheme_name: str, tracer) -> list:
    return [r.to_jsonable() for r in run_scheme(plan, scheme_name, tracer=tracer)]


def _run_serve(plan: ServePlan, scheme_name: str, tracer) -> dict:
    # The serving facade records no spans; a traced run only marks it.
    return StorageService(plan, scheme_name).run().to_jsonable()


#: Payload ``kind`` -> (plan type, runner, result decoder).  A trial
#: payload carries no ``kind``.  A runner returns the cell's results in
#: jsonable form; the decoder inverts that.
_KINDS = {
    None: (TrialPlan, _run_trials, results_from_jsonable),
    "serve": (ServePlan, _run_serve, ServeReport.from_jsonable),
}
_TAGS = {plan_type: kind for kind, (plan_type, _, _) in _KINDS.items()}


def _kind(payload: dict) -> tuple:
    """The (plan type, runner, result decoder) a payload's ``kind`` names."""
    kind = payload.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown job kind {kind!r}")
    return _KINDS[kind]


# ---------------------------------------------------------------------------
# the job itself

@dataclass(frozen=True)
class Job:
    """One schedulable cell: ``scheme_name`` under a trial or serving plan."""

    plan: TrialPlan | ServePlan
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

    def decode(self, data):
        """This job's results from their jsonable form (a run's or a cache entry's)."""
        return _kind(self.payload())[2](data)

    @property
    def label(self) -> str:
        """Short human label for progress lines and failure reports."""
        args = self.span_args()
        shape = ", ".join(f"{k}={v}" for k, v in args.items() if k != "scheme")
        return f"{self.scheme_name}({shape})"

    def span_args(self) -> dict:
        """Argument dict for the executor's ``exec.job`` trace span."""
        plan = self.plan
        if isinstance(plan, ServePlan):
            shape = {
                "clients": plan.workload.n_clients,
                "requests": plan.workload.total_requests,
            }
        else:
            shape = {"mode": plan.mode, "trials": plan.trials}
        return {"scheme": self.scheme_name, **shape}


def execute_payload(payload_json: str, tracer=NULL_TRACER) -> str:
    """Run one job from its canonical payload; return canonical results.

    This is the *entire* job code path: decode the payload, run it with
    the runner its ``kind`` names, encode the results.  The in-process,
    the pooled and the traced executor all go through this function, so
    sequential, parallel and traced execution are the same code by
    construction — bit-identity follows from the payload's determinism,
    not from luck.
    """
    payload = json.loads(payload_json)
    plan, scheme_name = decode_plan(payload)
    return canonical_json(_kind(payload)[1](plan, scheme_name, tracer))


def execute_job(job: Job):
    """In-process convenience wrapper: run ``job`` through the codec path."""
    return job.decode(json.loads(execute_payload(job.payload_json())))
