"""The execution engine: scheduled, parallel, memoized experiment jobs.

An :class:`Executor` takes a batch of :class:`~repro.exec.job.Job` cells
and returns their results in submission order.  Under the hood it:

* serves cache hits from a :class:`~repro.exec.store.ResultStore`
  (content-addressed, so interrupted or repeated sweeps resume for free);
* fans cache misses out over a ``ProcessPoolExecutor`` when ``jobs > 1``
  — every ``(plan, scheme)`` cell owns its RNG streams
  (``RngHub(plan.seed)``) and its own simulated cluster, so cells are
  embarrassingly parallel;
* runs everything through the *same* canonical payload/codec path
  (:func:`repro.exec.job.execute_payload`) whether pooled, sequential,
  traced or cached, so parallel execution is bit-identical to sequential
  by construction;
* retries a crashed worker job once, in-process, and reports it — a
  failure is never silently dropped;
* keeps per-job wall-clock accounting and paints a live progress/ETA
  line when asked to.

Traced runs (``tracer.enabled``) force the sequential in-process path and
bypass the cache: the trace's single global timeline only exists when
one process advances it, and a cache hit would silence the spans a trace
exists to record.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.exec.job import Job, execute_payload
from repro.exec.store import ResultStore


class JobFailure(RuntimeError):
    """A job failed in a worker *and* in its in-process retry."""


def _worker(payload_json: str) -> str:
    """Pool entry point: run one payload, return its results JSON.

    Module-level so it pickles under both fork and spawn start methods.
    """
    return execute_payload(payload_json)


def _mp_context():
    """Fork where available (fast, inherits the loaded numpy), else spawn.

    Results cannot differ between start methods: workers rebuild
    everything from the canonical payload.
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


@dataclass
class ExecStats:
    """What one executor did: cache traffic, work, retries, wall clock."""

    submitted: int = 0
    hits: int = 0
    ran: int = 0
    retried: int = 0
    deduped: int = 0
    wall_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.submitted if self.submitted else 0.0

    def summary(self) -> str:
        return (
            f"{self.submitted} jobs: {self.hits} cached, {self.ran} ran"
            + (f", {self.retried} retried" if self.retried else "")
            + (f", {self.deduped} deduped" if self.deduped else "")
            + f" ({self.wall_s:.1f}s)"
        )


class _Progress:
    """A single live ``\\r``-rewritten progress/ETA line on stderr."""

    def __init__(self, total: int, enabled: bool, stream=None) -> None:
        self.total = total
        self.enabled = enabled and total > 0
        self.stream = stream if stream is not None else sys.stderr
        self.done = 0
        self.hits = 0
        self._t0 = time.perf_counter()

    def tick(self, cached: bool) -> None:
        self.done += 1
        self.hits += int(cached)
        if not self.enabled:
            return
        elapsed = time.perf_counter() - self._t0
        remaining = self.total - self.done
        eta = elapsed / self.done * remaining if self.done else 0.0
        self.stream.write(
            f"\r[exec] {self.done}/{self.total} jobs"
            f" ({self.hits} cached), {elapsed:.1f}s elapsed"
            f", eta {eta:.1f}s "
        )
        self.stream.flush()

    def close(self) -> None:
        if self.enabled and self.done:
            self.stream.write("\n")
            self.stream.flush()


class Executor:
    """Run job batches: cache-aware, optionally process-parallel.

    Parameters
    ----------
    jobs:
        Worker-process count; ``1`` (the default) executes in-process.
    store:
        Result cache; ``None`` disables caching entirely.
    progress:
        Paint the live progress/ETA line on ``stderr``.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[ResultStore] = None,
        progress: bool = False,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.store = store
        self.progress = bool(progress)
        self.stats = ExecStats()

    # -- public API -----------------------------------------------------------
    def run_jobs(self, jobs: Sequence[Job], tracer=None) -> list:
        """Execute ``jobs``; return each job's results.

        A trial job's results are its ``AccessResult`` list, a serving
        job's its ``ServeReport``.  Output order is submission order,
        regardless of completion order, cache hits or retries — callers
        can zip results against inputs.
        """
        from repro.obs.tracer import current_tracer

        jobs = list(jobs)
        tracer = tracer if tracer is not None else current_tracer()
        self.stats.submitted += len(jobs)
        t_start = time.perf_counter()
        try:
            if tracer.enabled:
                return self._run_traced(jobs, tracer)
            return self._run_untraced(jobs)
        finally:
            self.stats.wall_s += time.perf_counter() - t_start

    # -- traced path ----------------------------------------------------------
    def _run_traced(self, jobs: list[Job], tracer) -> list:
        """Sequential, uncached, with one ``exec.job`` span per job.

        Each job runs through :func:`execute_payload` with the live
        tracer, so its results take the codec path cached and pooled
        results take.  A trial job advances ``tracer.offset`` past its
        run, so the span covers exactly the stretch of the global
        timeline the job occupied; a serving cell records nothing and
        gets a zero-length span where it ran.
        """
        out = []
        for job in jobs:
            t0 = tracer.offset
            results_json = execute_payload(job.payload_json(), tracer)
            t1 = tracer.offset
            saved = tracer.offset
            tracer.offset = 0.0
            try:
                tracer.span(
                    f"exec.job:{job.scheme_name}",
                    "exec",
                    t0,
                    max(t0, t1),
                    track="exec",
                    args=job.span_args(),
                )
            finally:
                tracer.offset = saved
            self.stats.ran += 1
            out.append(job.decode(json.loads(results_json)))
        return out

    # -- untraced path --------------------------------------------------------
    def _run_untraced(self, jobs: list[Job]) -> list:
        out: list = [None] * len(jobs)
        progress = _Progress(len(jobs), self.progress)
        try:
            keys = [job.key() for job in jobs]
            # Cache pass: serve hits, group misses by key so duplicate
            # cells in one batch run exactly once.
            miss_indices: dict[str, list[int]] = {}
            for i, (job, key) in enumerate(zip(jobs, keys)):
                entry = self.store.get(key) if self.store is not None else None
                if entry is not None:
                    out[i] = job.decode(entry["results"])
                    self.stats.hits += 1
                    progress.tick(cached=True)
                else:
                    miss_indices.setdefault(key, []).append(i)
            order = sorted(miss_indices, key=lambda k: miss_indices[k][0])
            if self.jobs > 1 and len(order) > 1:
                produced = self._run_pool(jobs, keys, miss_indices, order, progress)
            else:
                produced = {}
                for key in order:
                    produced[key] = self._run_local(jobs[miss_indices[key][0]], key)
                    progress.tick(cached=False)
            for key, results_json in produced.items():
                indices = miss_indices[key]
                self.stats.deduped += len(indices) - 1
                for _ in indices[1:]:  # duplicate cells ran once
                    progress.tick(cached=True)
                for i in indices:
                    out[i] = jobs[i].decode(json.loads(results_json))
        finally:
            progress.close()
        return out

    def _run_local(self, job: Job, key: str) -> str:
        """Execute one job in-process; persist and account it."""
        results_json = execute_payload(job.payload_json())
        self._record(job, key, results_json)
        return results_json

    def _record(self, job: Job, key: str, results_json: str) -> None:
        if self.store is not None:
            self.store.put(key, job.scheme_name, job.payload(), json.loads(results_json))
        self.stats.ran += 1

    def _run_pool(
        self,
        jobs: list[Job],
        keys: list[str],
        miss_indices: dict[str, list[int]],
        order: list[str],
        progress: _Progress,
    ) -> dict[str, str]:
        """Fan misses over a worker pool; retry failures in-process.

        A worker failure (an exception in the job, or the pool dying
        under it) is reported on stderr and the job re-runs in this
        process — same payload, same codec, so a successful retry is
        indistinguishable from a first-try success.  A job that fails
        its retry raises :class:`JobFailure` naming the job.
        """
        produced: dict[str, str] = {}
        failed: list[tuple[str, BaseException]] = []
        ctx = _mp_context()
        workers = min(self.jobs, len(order))
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            futures = {
                key: pool.submit(_worker, jobs[miss_indices[key][0]].payload_json())
                for key in order
            }
            for key in order:
                job = jobs[miss_indices[key][0]]
                try:
                    results_json = futures[key].result()
                except BaseException as exc:  # job error or broken pool
                    failed.append((key, exc))
                    continue
                self._record(job, key, results_json)
                produced[key] = results_json
                progress.tick(cached=False)
        for key, exc in failed:
            job = jobs[miss_indices[key][0]]
            print(
                f"[exec] job {job.label} failed in worker"
                f" ({type(exc).__name__}: {exc}); retrying in-process",
                file=sys.stderr,
            )
            try:
                produced[key] = self._run_local(job, key)
            except BaseException as retry_exc:
                raise JobFailure(
                    f"job {job.label} (key {key}) failed in a worker and "
                    f"again on in-process retry"
                ) from retry_exc
            self.stats.retried += 1
            progress.tick(cached=False)
        return produced


# -- ambient executor ---------------------------------------------------------
# Like the ambient tracer: the experiment registry exposes zero-argument
# callables, so the CLI installs the executor ambiently and `run_point` /
# `sweep` pick it up as their default.
_ambient = threading.local()

#: The fallback executor: sequential, uncached — exactly the pre-engine
#: behaviour, so code that never installs an executor is unaffected.
_DEFAULT = Executor()


def current_executor() -> Executor:
    """The innermost executor installed with :func:`use_executor`."""
    stack = getattr(_ambient, "stack", None)
    return stack[-1] if stack else _DEFAULT


@contextmanager
def use_executor(executor: Executor) -> Iterator[Executor]:
    """Install ``executor`` as the ambient default within the block."""
    stack = getattr(_ambient, "stack", None)
    if stack is None:
        stack = _ambient.stack = []
    stack.append(executor)
    try:
        yield executor
    finally:
        stack.pop()
