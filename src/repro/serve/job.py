"""Serving cells as execution-engine jobs.

:class:`ServeJob` speaks the same duck-typed interface as
:class:`repro.exec.job.Job` — canonical payload, content-hash cache key,
human label, traced fallback — so the executor schedules, caches,
dedupes and pools serving cells exactly like trial cells.  The payload
is tagged ``kind: serve``; :func:`repro.exec.job.execute_payload`
dispatches on that tag, which is all the executor needs to run a cell
it has never heard of in a worker process.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.service import ServePlan, encode_serve_plan
from repro.serve.slo import ServeReport


@dataclass(frozen=True)
class ServeJob:
    """One schedulable serving cell: ``scheme_name`` under ``plan``."""

    plan: ServePlan
    scheme_name: str

    def payload(self) -> dict:
        return encode_serve_plan(self.plan, self.scheme_name)

    def payload_json(self) -> str:
        from repro.exec.job import canonical_json

        return canonical_json(self.payload())

    def key(self) -> str:
        """Content hash addressing this cell's report in the store.

        Serving cells carry their whole configuration in the payload
        (no ``REPRO_TRIALS``/``REPRO_DATA_MB`` dependence), so only the
        code-version salt folds in alongside it.
        """
        from repro.exec.job import CODE_SALT
        from repro.sim.rng import stable_digest

        return stable_digest(CODE_SALT, "serve", self.payload_json())

    @property
    def label(self) -> str:
        return (
            f"serve:{self.scheme_name}/"
            f"{self.plan.workload.n_clients}c"
        )

    # -- executor hooks -------------------------------------------------------
    def run_traced(self, tracer) -> ServeReport:
        """Traced fallback: run sequentially in-process.

        The serving loop is closed-form queueing and records no spans of
        its own, so a traced run simply executes the cell inline and lets the executor's ``exec.job`` span mark it.
        """
        import json

        from repro.serve.service import execute_serve_payload

        return ServeReport.from_jsonable(
            json.loads(execute_serve_payload(self.payload()))
        )

    def span_args(self) -> dict:
        return {
            "scheme": self.scheme_name,
            "clients": self.plan.workload.n_clients,
            "requests": self.plan.workload.total_requests,
        }
