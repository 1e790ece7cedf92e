"""Extension: multi-tenant serving at scale (``ext_serve``).

Sweeps the open-loop client population per scheme through the
:mod:`repro.serve` facade: consistent-hash placement across filers,
QoS-planned admission, per-filer queueing with graceful rejection, and
SLO-grade metrics (p50/p99/p999 latency, goodput under overload,
rejection rate).  Each ``(scheme, client count)`` cell is one
:class:`repro.exec.job.Job` submitted through the ambient
:mod:`repro.exec` executor, so cells parallelise over ``-j N`` workers
and memoize in the result cache — byte-identically to a sequential run.

``REPRO_SERVE_CLIENTS`` (comma-separated counts) overrides the swept
populations; the default tops out at 10⁵ simulated clients.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.experiments.harness import run_cells
from repro.metrics.reporting import format_table
from repro.serve.service import ServePlan
from repro.serve.slo import ServeReport
from repro.serve.workload import WorkloadSpec

#: Default swept client populations (override with ``REPRO_SERVE_CLIENTS``).
DEFAULT_CLIENTS = (1_000, 10_000, 100_000)

#: Schemes served (the paper's protagonist and its baseline).
SERVE_SCHEMES = ("raid0", "robustore")


def serve_clients(default=DEFAULT_CLIENTS) -> tuple[int, ...]:
    """Swept client counts (``REPRO_SERVE_CLIENTS`` overrides)."""
    raw = os.environ.get("REPRO_SERVE_CLIENTS")
    if not raw:
        return tuple(default)
    counts = tuple(int(tok) for tok in raw.split(",") if tok.strip())
    if not counts or any(c < 1 for c in counts):
        raise ValueError(f"bad REPRO_SERVE_CLIENTS={raw!r}")
    return counts


@dataclass
class ServeSweepResult:
    """Per-cell SLO reports over the client-count sweep."""

    reports: list[ServeReport]

    def text(self) -> str:
        return format_table(
            "Extension: multi-tenant serving — consistent-hash placement, "
            "QoS admission, SLO metrics (open loop)",
            [r.row() for r in self.reports],
        )


def base_plan(n_clients: int, seed: int = 0) -> ServePlan:
    """The baseline serving cell at ``n_clients`` open-loop clients."""
    return ServePlan(
        workload=WorkloadSpec(n_clients=n_clients),
        seed=seed,
    )


def ext_serve(
    client_counts=None,
    schemes=SERVE_SCHEMES,
    seed: int = 0,
) -> ServeSweepResult:
    """SLO metrics per scheme vs open-loop client population."""
    counts = serve_clients() if client_counts is None else tuple(client_counts)
    reports = run_cells(
        (base_plan(n, seed=seed), scheme) for n in counts for scheme in schemes
    )
    return ServeSweepResult(reports)


def overload_plan(n_clients: int, seed: int = 0) -> ServePlan:
    """A deliberately undersized cluster: overload behaviour on display."""
    plan = base_plan(n_clients, seed=seed)
    return replace(plan, pool=32, max_wait_s=5.0)
