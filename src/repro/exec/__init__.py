"""``repro.exec`` — parallel, cache-aware experiment execution.

The subsystem turns experiment execution into scheduled, memoized jobs:

* :class:`~repro.exec.job.Job` — one ``(plan, scheme)`` cell, a trial
  plan or a serving plan, as canonical JSON with a
  :func:`~repro.sim.rng.stable_digest` content hash;
* :class:`~repro.exec.engine.Executor` — cache-aware, optionally
  process-parallel batch execution with retry and progress accounting;
* :class:`~repro.exec.store.ResultStore` — the content-addressed
  ``.repro-cache/`` result store (``python -m repro.exec`` for stats/GC).

``run_cells``/``run_point``/``sweep`` in :mod:`repro.experiments.harness`
submit through the ambient executor (:func:`use_executor` /
:func:`current_executor`), and ``python -m repro.experiments -j N``
installs a pooled one.

See ``docs/parallel_execution.md`` for the job model, cache-key anatomy
and the traced-run sequential degradation.
"""

from repro.exec.engine import (
    ExecStats,
    Executor,
    JobFailure,
    current_executor,
    use_executor,
)
from repro.exec.job import (
    CODE_SALT,
    Job,
    canonical_json,
    decode_plan,
    encode_plan,
    execute_job,
    execute_payload,
    results_from_json,
    results_to_json,
)
from repro.exec.store import ResultStore, StoreStats, default_cache_dir

__all__ = [
    "CODE_SALT",
    "ExecStats",
    "Executor",
    "Job",
    "JobFailure",
    "ResultStore",
    "StoreStats",
    "canonical_json",
    "current_executor",
    "decode_plan",
    "default_cache_dir",
    "encode_plan",
    "execute_job",
    "execute_payload",
    "results_from_json",
    "results_to_json",
    "use_executor",
]
