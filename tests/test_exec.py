"""Tests for repro.exec: job codec, result store, executor, CLI.

The subsystem's contracts, in test form:

* the payload codec is lossless and byte-stable for both plan types
  (decode ∘ encode = id, re-encoding a decoded payload is
  byte-identical) and rejects unknown fields and unknown kinds;
* cache keys fold the env knobs and the code salt;
* pooled execution is bit-identical to sequential;
* a cache hit yields the same ``MetricSummary`` as the run that
  populated it (hypothesis round-trip property);
* a crashed worker job is reported and retried, never silently dropped;
* traced runs degrade to sequential, uncached execution with one
  ``exec.job`` span per job;
* the result store applies one validity rule to ``get``, ``stats`` and
  ``gc``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accesscore.result import AccessConfig, AccessResult
from repro.accesscore.routing import MB
from repro.disk.workload import InDiskLayout
from repro.exec import (
    CODE_SALT,
    Executor,
    Job,
    JobFailure,
    ResultStore,
    canonical_json,
    decode_plan,
    encode_plan,
    execute_job,
    execute_payload,
    results_from_json,
    results_to_json,
    use_executor,
)
from repro.exec import engine as exec_engine
from repro.exec.cli import main as exec_cli
from repro.experiments.harness import TrialPlan, run_scheme
from repro.faults.model import FaultModel
from repro.faults.plan import FaultPlan
from repro.metrics.stats import MetricSummary, summarize
from repro.serve import ServePlan, WorkloadSpec

CFG = AccessConfig(data_bytes=4 * MB, block_bytes=1 * MB, n_disks=4, redundancy=3.0)


def small_plan(**kwargs) -> TrialPlan:
    base = dict(access=CFG, pool=8, rtt_s=0.001, seed=7, trials=2)
    base.update(kwargs)
    return TrialPlan(**base)


# ---------------------------------------------------------------------------
# payload codec


PLAN_VARIANTS = {
    "baseline": {},
    "write": {"mode": "write"},
    "raw": {"mode": "raw", "cache_aging_window_s": 123.5},
    "layout": {"layout": InDiskLayout(blocking_factor=4, p_sequential=1.0)},
    "background": {"background": "heterogeneous", "fixed_zone": 2},
    "failed": {"failed_disks": 1},
    "fault_model": {
        "fault_model": FaultModel(mttf_s=30.0, mttr_s=None),
        "fault_horizon_s": 9.0,
    },
    "fault_plan": {
        "fault_plan": FaultPlan.from_scenario(
            [
                {"at": 0.1, "fault": "disk_fail", "disk": 2},
                {"at": 0.3, "fault": "disk_recover", "disk": 2},
            ]
        )
    },
}


#: A serving cell: the other plan type the one codec carries.
SERVE_PLAN = ServePlan(
    workload=WorkloadSpec(n_clients=50, duration_s=10.0, n_files=16),
    pool=8, disks_per_filer=4, calibration_trials=1, calibration_mb=4,
    target_bandwidth_mbps=25.0, seed=3,
)


def variant_plan(variant: str):
    return SERVE_PLAN if variant == "serve" else small_plan(**PLAN_VARIANTS[variant])


@pytest.mark.parametrize("variant", sorted(PLAN_VARIANTS) + ["serve"])
def test_plan_codec_round_trips(variant):
    plan = variant_plan(variant)
    payload = encode_plan(plan, "robustore")
    assert payload.get("kind") == ("serve" if variant == "serve" else None)
    decoded, scheme = decode_plan(json.loads(canonical_json(payload)))
    assert scheme == "robustore" and decoded == plan
    # Re-encoding the decoded plan is byte-identical: canonical JSON is a
    # fixed point, so cache keys never depend on which side encoded.
    assert canonical_json(encode_plan(decoded, scheme)) == canonical_json(payload)


def test_plan_decode_rejects_unknown_fields():
    for plan, nested in ((small_plan(), "access"), (SERVE_PLAN, "workload")):
        payload = encode_plan(plan, "raid0")
        payload["not_a_field"] = 1
        with pytest.raises(ValueError, match="not_a_field"):
            decode_plan(payload)
        # Nested dataclasses are held to their own fields too.
        payload = encode_plan(plan, "raid0")
        payload[nested] = {**payload[nested], "also_not": 2}
        with pytest.raises(ValueError, match="also_not"):
            decode_plan(payload)


def test_plan_decode_and_execute_reject_unknown_kinds():
    payload = {**encode_plan(small_plan(), "raid0"), "kind": "mystery"}
    with pytest.raises(ValueError, match="unknown job kind 'mystery'"):
        decode_plan(payload)
    with pytest.raises(ValueError, match="unknown job kind 'mystery'"):
        execute_payload(canonical_json(payload))
    with pytest.raises(KeyError):
        encode_plan(CFG, "raid0")  # not a plan type


def test_result_decode_rejects_unknown_fields():
    with pytest.raises(ValueError, match="bogus"):
        AccessResult.from_jsonable({"latency_s": 1.0, "bogus": 2})


def test_job_key_folds_env_knobs_and_salt(monkeypatch):
    job = Job(small_plan(), "raid0")
    key = job.key()
    assert len(key) == 32 and int(key, 16) >= 0
    monkeypatch.setenv("REPRO_TRIALS", "99")
    assert Job(small_plan(), "raid0").key() != key  # env knob changes the key
    monkeypatch.delenv("REPRO_TRIALS")
    assert Job(small_plan(), "rraid-s").key() != key  # scheme changes the key
    assert Job(small_plan(seed=8), "raid0").key() != key  # plan changes the key


def test_execute_payload_matches_run_scheme():
    plan = small_plan()
    direct = run_scheme(plan, "robustore")
    via_codec = execute_job(Job(plan, "robustore"))
    assert results_to_json(via_codec) == results_to_json(direct)


# ---------------------------------------------------------------------------
# result store


def test_store_round_trip_and_miss(tmp_path):
    store = ResultStore(tmp_path / "cache")
    job = Job(small_plan(), "raid0")
    key = job.key()
    assert store.get(key) is None
    results = execute_job(job)
    store.put(key, "raid0", job.payload(), json.loads(results_to_json(results)))
    entry = store.get(key)
    assert entry is not None
    assert results_to_json(
        [AccessResult.from_jsonable(d) for d in entry["results"]]
    ) == results_to_json(results)


def test_store_rejects_corrupt_and_stale(tmp_path):
    store = ResultStore(tmp_path / "cache")
    job = Job(small_plan(), "raid0")
    key = job.key()
    results = json.loads(results_to_json(execute_job(job)))
    store.put(key, "raid0", job.payload(), results)

    path = store.path_for(key)
    entry = json.loads(path.read_text())
    entry["salt"] = "exec-v0"  # written by older code
    path.write_text(json.dumps(entry))
    assert store.get(key) is None
    assert store.stats().stale == 1

    path.write_text("{not json")
    assert store.get(key) is None
    assert store.gc() == 1  # unreadable entries are collectable
    assert store.stats().entries == 0


def test_store_gc_all_and_stats(tmp_path):
    store = ResultStore(tmp_path / "cache")
    for scheme in ("raid0", "rraid-s"):
        job = Job(small_plan(), scheme)
        store.put(
            job.key(),
            scheme,
            job.payload(),
            json.loads(results_to_json(execute_job(job))),
        )
    stats = store.stats()
    assert stats.entries == 2 and stats.by_scheme == {"raid0": 1, "rraid-s": 1}
    assert store.gc() == 0  # nothing stale
    assert store.gc(all_entries=True) == 2
    assert store.stats().entries == 0


def test_store_stats_count_serving_cells_apart(tmp_path):
    # One scheme's trial cell and serving cell are two rows, not one.
    store = ResultStore(tmp_path / "cache")
    for plan in (small_plan(), SERVE_PLAN):
        job = Job(plan, "raid0")
        store.put(job.key(), "raid0", job.payload(), [])
    stats = store.stats()
    assert stats.by_scheme == {"raid0": 1, "raid0 (serve)": 1}
    assert "raid0 (serve)  1" in stats.render()


def test_store_get_stats_and_gc_share_one_validity_rule(tmp_path):
    store = ResultStore(tmp_path / "cache")
    job = Job(small_plan(), "raid0")
    results = json.loads(results_to_json(execute_job(job)))
    # A foreign format version, a key that is not the file's, an entry
    # without results: ``get`` misses each, so ``stats`` counts each as
    # stale and ``gc`` removes each.
    damages = (
        lambda entry: {**entry, "version": 0},
        lambda entry: {**entry, "key": "0" * 32},
        lambda entry: {k: v for k, v in entry.items() if k != "results"},
    )
    for seed, damage in enumerate(damages, start=100):
        key = Job(small_plan(seed=seed), "raid0").key()
        path = store.put(key, "raid0", job.payload(), results)
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
        assert store.get(key) is None
    live = store.put(job.key(), "raid0", job.payload(), results)
    stats = store.stats()
    assert (stats.entries, stats.stale, stats.by_scheme) == (4, 3, {"raid0": 1})
    assert store.gc() == 3
    assert store.stats().entries == 1 and live.exists()


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    from repro.exec import default_cache_dir

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert str(default_cache_dir()) == str(tmp_path / "elsewhere")


# ---------------------------------------------------------------------------
# executor: caching, dedupe, pool identity


def test_executor_cache_hit_and_stats(tmp_path):
    store = ResultStore(tmp_path / "cache")
    jobs = [Job(small_plan(), s) for s in ("raid0", "robustore")]
    first = Executor(store=store)
    a = first.run_jobs(jobs)
    assert (first.stats.hits, first.stats.ran) == (0, 2)
    second = Executor(store=store)
    b = second.run_jobs(jobs)
    assert (second.stats.hits, second.stats.ran) == (2, 0)
    assert [results_to_json(r) for r in a] == [results_to_json(r) for r in b]
    assert second.stats.hit_rate == 1.0
    assert "2 cached" in second.stats.summary()


def test_executor_dedupes_identical_cells():
    jobs = [Job(small_plan(), "raid0")] * 3
    ex = Executor(store=None)
    out = ex.run_jobs(jobs)
    assert ex.stats.ran == 1 and ex.stats.deduped == 2
    assert (
        results_to_json(out[0])
        == results_to_json(out[1])
        == results_to_json(out[2])
    )


def test_pool_execution_bit_identical():
    jobs = [Job(small_plan(), s) for s in ("raid0", "rraid-s", "robustore")]
    seq = Executor(jobs=1, store=None).run_jobs(jobs)
    par = Executor(jobs=2, store=None).run_jobs(jobs)
    for job, a, b in zip(jobs, seq, par):
        assert results_to_json(a) == results_to_json(b), job.label


def test_ambient_executor_reaches_run_point(tmp_path):
    from repro.experiments.harness import run_point

    store = ResultStore(tmp_path / "cache")
    ex = Executor(store=store)
    with use_executor(ex):
        point = run_point(small_plan(), schemes=("raid0",))
    assert ex.stats.ran == 1
    assert isinstance(point["raid0"], MetricSummary)


def test_rerouted_experiment_is_served_from_the_cache(tmp_path):
    from repro.experiments.extensions import ext_baselines

    store = ResultStore(tmp_path / "cache")
    first, second = Executor(store=store), Executor(store=store)
    with use_executor(first):
        fresh = ext_baselines(data_mb=16, trials=1)
    with use_executor(second):
        cached = ext_baselines(data_mb=16, trials=1)
    assert (first.stats.ran, first.stats.hits) == (6, 0)
    assert (second.stats.ran, second.stats.hits) == (0, 6)
    assert cached.text() == fresh.text()


# ---------------------------------------------------------------------------
# worker failure: report + retry, never drop


def _failing_worker(payload_json):
    raise RuntimeError("synthetic worker crash")


def test_worker_failure_is_retried_in_process(monkeypatch, capsys):
    monkeypatch.setattr(exec_engine, "_worker", _failing_worker)
    jobs = [Job(small_plan(), s) for s in ("raid0", "robustore")]
    ex = Executor(jobs=2, store=None)
    out = ex.run_jobs(jobs)
    assert ex.stats.retried == 2
    err = capsys.readouterr().err
    assert "failed in worker" in err and "retrying in-process" in err
    # The in-process retry goes through the same codec path, so results
    # are exactly what a healthy pool would have produced.
    expected = Executor(jobs=1, store=None).run_jobs(jobs)
    assert [results_to_json(r) for r in out] == [
        results_to_json(r) for r in expected
    ]


def test_worker_and_retry_failure_raises(monkeypatch):
    monkeypatch.setattr(exec_engine, "_worker", _failing_worker)
    monkeypatch.setattr(exec_engine, "execute_payload", _failing_worker)
    jobs = [Job(small_plan(), s) for s in ("raid0", "robustore")]
    with pytest.raises(JobFailure, match="again on in-process retry"):
        Executor(jobs=2, store=None).run_jobs(jobs)


def _exiting_worker(payload_json):
    os._exit(13)  # kills the worker: BrokenProcessPool for pending futures


def test_dead_pool_jobs_are_recovered(monkeypatch, capsys):
    monkeypatch.setattr(exec_engine, "_worker", _exiting_worker)
    jobs = [Job(small_plan(), s) for s in ("raid0", "robustore")]
    ex = Executor(jobs=2, store=None)
    out = ex.run_jobs(jobs)
    assert ex.stats.retried == 2
    assert all(results is not None for results in out)


# ---------------------------------------------------------------------------
# traced runs: sequential, uncached, spanned


def test_traced_run_bypasses_cache_and_emits_job_spans(tmp_path):
    from repro.obs import Tracer

    store = ResultStore(tmp_path / "cache")
    tracer = Tracer()
    ex = Executor(jobs=4, store=store)
    ex.run_jobs([Job(small_plan(), "raid0")], tracer=tracer)
    assert store.stats().entries == 0  # nothing cached under a tracer
    spans = [s for s in tracer.spans if s.cat == "exec"]
    assert [s.name for s in spans] == ["exec.job:raid0"]
    assert spans[0].dur > 0


def test_traced_results_match_untraced():
    from repro.obs import Tracer

    plan = small_plan()
    traced = Executor().run_jobs([Job(plan, "robustore")], tracer=Tracer())
    untraced = Executor().run_jobs([Job(plan, "robustore")])
    assert results_to_json(traced[0]) == results_to_json(untraced[0])


# ---------------------------------------------------------------------------
# cache hit => identical MetricSummary (round-trip property)

finite_metric = st.floats(
    min_value=0, max_value=1e9, allow_nan=False, allow_infinity=False
)
# Latencies stay >= 1µs so bandwidth (bytes / latency) can't overflow to
# inf and trip numpy's invalid-subtract warning inside std().
latency = st.one_of(
    st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False),
    st.just(float("inf")),
)
extra_value = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    finite_metric,
    st.booleans(),
    st.text(max_size=8),
)
access_results = st.lists(
    st.builds(
        AccessResult,
        latency_s=latency,
        data_bytes=st.integers(min_value=1, max_value=2**40),
        network_bytes=st.integers(min_value=0, max_value=2**40),
        disk_blocks=st.integers(min_value=0, max_value=10_000),
        blocks_received=st.integers(min_value=0, max_value=10_000),
        cache_hits=st.integers(min_value=0, max_value=10_000),
        rounds=st.integers(min_value=1, max_value=64),
        extra=st.dictionaries(st.text(max_size=8), extra_value, max_size=4),
    ),
    min_size=1,
    max_size=6,
)


def _summaries_equal(a: MetricSummary, b: MetricSummary) -> bool:
    def eq(x, y):
        if isinstance(x, float) and isinstance(y, float):
            return (x == y) or (math.isnan(x) and math.isnan(y))
        return x == y

    return all(
        eq(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
    )


@settings(max_examples=60, deadline=None)
@given(access_results)
def test_cached_results_summarize_identically(results):
    # A cache hit serves results through the JSON codec; the summary they
    # produce must equal the summary of the originals, bit for bit.
    round_tripped = results_from_json(results_to_json(results))
    assert _summaries_equal(summarize(round_tripped), summarize(results))
    # And the codec itself is a fixed point.
    assert results_to_json(round_tripped) == results_to_json(results)


def test_end_to_end_cache_hit_summary(tmp_path):
    store = ResultStore(tmp_path / "cache")
    job = Job(small_plan(), "robustore")
    fresh = summarize(Executor(store=store).run_jobs([job])[0])
    hit_ex = Executor(store=store)
    hit = summarize(hit_ex.run_jobs([job])[0])
    assert hit_ex.stats.hits == 1
    assert _summaries_equal(fresh, hit)


# ---------------------------------------------------------------------------
# CLI


def test_cli_stats_and_gc(tmp_path):
    cache = tmp_path / "cache"
    store = ResultStore(cache)
    job = Job(small_plan(), "raid0")
    store.put(
        job.key(),
        "raid0",
        job.payload(),
        json.loads(results_to_json(execute_job(job))),
    )
    out = io.StringIO()
    assert exec_cli(["--cache-dir", str(cache), "stats"], out=out) == 0
    text = out.getvalue()
    assert CODE_SALT in text and "entries: 1" in text and "raid0" in text

    out = io.StringIO()
    assert exec_cli(["--cache-dir", str(cache), "gc", "--all"], out=out) == 0
    assert "removed 1" in out.getvalue()
    assert store.stats().entries == 0


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        exec_cli([])


def test_execute_payload_is_the_worker_path():
    job = Job(small_plan(), "raid0")
    assert results_to_json(
        results_from_json(execute_payload(job.payload_json()))
    ) == results_to_json(execute_job(job))
