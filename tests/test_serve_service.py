"""Tests for the serving facade, its payload codec and exec integration.

A serving cell is a pure function of ``(plan, scheme)``: the payload
codec is lossless, two executions of the same payload are byte-identical,
overload produces graceful rejections (not unbounded queueing), and a
``ServeJob`` rides the executor's cache and worker pool exactly like a
trial job.  The columnar replay equals a per-request reference loop, and
the tracker's batched ``record`` equals its per-request calls.
"""

from __future__ import annotations

import heapq
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accesscore.routing import MB
from repro.exec import Executor, ResultStore, canonical_json, execute_payload
from repro.exec.job import results_from_jsonable
from repro.serve import ServeJob, ServePlan, ServeReport, WorkloadSpec
from repro.serve.service import (
    REPLAY_CHUNK,
    StorageService,
    decode_serve_plan,
    encode_serve_plan,
    execute_serve_payload,
)
from repro.serve.slo import SloTracker
from repro.serve.workload import generate

SMALL = WorkloadSpec(n_clients=200, duration_s=60.0, n_files=64)


def small_plan(**kwargs) -> ServePlan:
    base = dict(
        workload=SMALL, pool=16, disks_per_filer=4, calibration_trials=2,
        calibration_mb=8, seed=11,
    )
    base.update(kwargs)
    return ServePlan(**base)


# ---------------------------------------------------------------------------
# payload codec


def test_plan_codec_round_trip():
    plan = small_plan(target_bandwidth_mbps=50.0)
    payload = encode_serve_plan(plan, "robustore")
    assert payload["kind"] == "serve"
    back, scheme = decode_serve_plan(json.loads(canonical_json(payload)))
    assert back == plan and scheme == "robustore"


def test_plan_codec_rejects_bad_payloads():
    payload = encode_serve_plan(small_plan(), "raid0")
    with pytest.raises(ValueError):
        decode_serve_plan({**payload, "kind": "trial"})
    with pytest.raises(ValueError):
        decode_serve_plan({**payload, "surprise": 1})


def test_plan_validation():
    with pytest.raises(ValueError):
        small_plan(pool=0)
    with pytest.raises(ValueError):
        small_plan(replication_factor=0)
    with pytest.raises(ValueError):
        small_plan(max_wait_s=0.0)


# ---------------------------------------------------------------------------
# end-to-end serving


def test_service_end_to_end_report():
    report = StorageService(small_plan(), "robustore").run()
    assert isinstance(report, ServeReport)
    assert report.scheme == "robustore"
    assert report.offered == SMALL.total_requests
    assert report.admitted + report.rejected == report.offered
    assert report.admitted > 0
    assert 0.0 < report.p50_s <= report.p99_s <= report.p999_s
    assert report.goodput_mbps <= report.offered_mbps
    assert ServeReport.from_jsonable(report.to_jsonable()) == report


def test_same_payload_byte_identical():
    payload = encode_serve_plan(small_plan(), "raid0")
    assert execute_serve_payload(payload) == execute_serve_payload(payload)


def test_exec_payload_dispatches_on_kind():
    payload = encode_serve_plan(small_plan(), "raid0")
    out = execute_payload(canonical_json(payload))
    assert out == execute_serve_payload(payload)
    report = results_from_jsonable(json.loads(out))
    assert isinstance(report, ServeReport)
    with pytest.raises(ValueError):
        execute_payload(canonical_json({**payload, "kind": "mystery"}))
    with pytest.raises(ValueError):
        results_from_jsonable({"kind": "mystery"})


def test_overload_rejects_gracefully():
    # One filer slot and a tight admission bound: most requests cannot
    # start in time and must be refused, not queued forever.
    plan = small_plan(
        workload=WorkloadSpec(n_clients=2000, duration_s=30.0, n_files=64),
        filer_concurrency=1,
        max_wait_s=0.5,
    )
    report = StorageService(plan, "raid0").run()
    assert report.rejected > 0
    assert report.rejection_rate == pytest.approx(
        report.rejected / report.offered
    )
    assert report.goodput_mbps < report.offered_mbps


def reference_run(plan: ServePlan, scheme: str) -> ServeReport:
    """The replay one request at a time: metadata lookup, admit/reject.

    The straightforward form of :meth:`StorageService.run`, drawing the
    same streams in the same order; the columnar replay must match it
    exactly.
    """
    svc = StorageService(plan, scheme)
    spec = plan.workload
    batch = generate(spec, svc.hub)
    cal = svc.calibrate()
    picks = svc.hub.stream("serve", "svc").integers(0, cal.size, size=len(batch))
    service_s = cal[picks] * (batch.size_bytes / float(plan.calibration_mb * MB))
    slots = [[0.0] * plan.slots_per_filer for _ in range(svc.cluster.n_filers)]
    tracker = SloTracker(spec.duration_s, plan.slo_latency_s)
    for i in range(len(batch)):
        t = float(batch.arrival_s[i])
        size = int(batch.size_bytes[i])
        filers = svc.placer.lookup(f"f{int(batch.file_id[i])}")
        best, best_start = None, float("inf")
        for f in filers:
            start = max(t, slots[f][0])
            if start < best_start:
                best, best_start = f, start
        if best_start - t > plan.max_wait_s:
            tracker.reject(size)
            continue
        svc_s = float(service_s[i])
        heapq.heapreplace(slots[best], best_start + svc_s)
        latency = (best_start - t) + svc_s + svc.metadata.latency_s
        tracker.admit(latency, size, failover=best != filers[0])
    return tracker.report(scheme, spec.n_clients)


# A trace of a few replay chunks, and the same trace overloaded (one slot
# per filer, a tight admission bound) so that both rejections and
# failovers occur.
CHUNKED = WorkloadSpec(n_clients=2500, duration_s=60.0, n_files=64)
OVERLOADED = dict(filer_concurrency=1, max_wait_s=0.5)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("overload", [False, True])
def test_columnar_replay_equals_reference(seed, overload):
    plan = small_plan(workload=CHUNKED, seed=seed, **(OVERLOADED if overload else {}))
    assert CHUNKED.total_requests > 2 * REPLAY_CHUNK
    reports = [StorageService(plan, s).run() for s in ("raid0", "robustore")]
    assert reports == [reference_run(plan, s) for s in ("raid0", "robustore")]
    if overload:
        assert any(r.rejected for r in reports) and any(r.failovers for r in reports)


def test_calibration_sample_is_finite_and_scheme_specific():
    svc = StorageService(small_plan(), "robustore")
    cal = svc.calibrate()
    assert cal.size >= 1 and np.all(np.isfinite(cal)) and np.all(cal > 0)


# ---------------------------------------------------------------------------
# exec integration: cache, pool, byte-identity


def jobs_pair():
    plan = small_plan()
    return [ServeJob(plan, "raid0"), ServeJob(plan, "robustore")]


def test_serve_job_key_and_label():
    a, b = jobs_pair()
    assert a.key() != b.key()
    assert a.label.startswith("serve:raid0")
    assert "200c" in a.label


def test_serve_jobs_through_executor_cache(tmp_path):
    store = ResultStore(tmp_path / "cache")
    first = Executor(store=store).run_jobs(jobs_pair())
    second = Executor(store=store).run_jobs(jobs_pair())
    assert first == second
    assert all(isinstance(r, ServeReport) for r in first)
    assert store.stats().entries == 2


def test_serve_jobs_parallel_equals_sequential():
    seq = Executor(jobs=1, store=None).run_jobs(jobs_pair())
    par = Executor(jobs=2, store=None).run_jobs(jobs_pair())
    assert seq == par


# ---------------------------------------------------------------------------
# SLO tracker arithmetic


def test_tracker_counts_and_goodput():
    t = SloTracker(duration_s=10.0, slo_latency_s=1.0)
    t.admit(0.5, 10 << 20, failover=False)
    t.admit(2.0, 10 << 20, failover=True)  # SLO miss: no goodput credit
    t.reject(10 << 20)
    r = t.report("raid0", n_clients=3)
    assert (r.offered, r.admitted, r.rejected) == (3, 2, 1)
    assert r.failovers == 1 and r.slo_misses == 1
    assert r.goodput_mbps == pytest.approx(1.0)
    assert r.offered_mbps == pytest.approx(3.0)
    assert r.rejection_rate == pytest.approx(1 / 3)


SLO_S = 1.0

# One offered request: (latency, size, admitted, failover).  Latencies
# include the SLO bound itself and values past the histogram's last edge.
requests = st.tuples(
    st.one_of(
        st.just(SLO_S),
        st.floats(min_value=1e-5, max_value=1e6, allow_nan=False),
    ),
    st.integers(min_value=1, max_value=1 << 40),
    st.booleans(),
    st.booleans(),
)


def one_at_a_time(samples) -> SloTracker:
    t = SloTracker(duration_s=10.0, slo_latency_s=SLO_S)
    for lat, size, ok, fo in samples:
        if ok:
            t.admit(lat, size, failover=fo)
        else:
            t.reject(size)
    return t


@settings(max_examples=200, deadline=None)
@given(st.lists(requests, max_size=60), st.integers(min_value=1, max_value=64))
@example([], 1)
@example([(0.5, 1 << 20, False, True)] * 3, 2)
@example([(SLO_S, 1 << 20, True, False), (SLO_S * 2, 1 << 20, True, True)], 1)
def test_record_batches_equal_per_request_calls(samples, chunk):
    batched = SloTracker(duration_s=10.0, slo_latency_s=SLO_S)
    batched.record([], [], [], [])
    for lo in range(0, len(samples), chunk):
        lat, size, ok, fo = zip(*samples[lo:lo + chunk])
        batched.record(lat, size, ok, fo)
    single = one_at_a_time(samples)
    assert batched.report("raid0", 1) == single.report("raid0", 1)
    assert np.array_equal(batched.hist.counts, single.hist.counts)
    # admit/reject are one-element records, so also check the shared path
    # against the definitions: a latency at the bound meets the SLO.
    served = [(lat, size) for lat, size, ok, _ in samples if ok]
    assert batched.bytes_offered == sum(size for _, size, _, _ in samples)
    assert batched.bytes_good == sum(size for lat, size in served if lat <= SLO_S)
    assert batched.slo_misses == sum(lat > SLO_S for lat, _ in served)
    assert batched.failovers == sum(ok and fo for _, _, ok, fo in samples)
    if not served:
        assert batched.report("raid0", 1).p50_s == float("inf")


def test_tracker_all_rejected_reports_inf_tails():
    t = SloTracker(duration_s=10.0, slo_latency_s=1.0)
    t.reject(1 << 20)
    r = t.report("raid0", n_clients=1)
    assert r.p50_s == float("inf") and r.rejection_rate == 1.0
    assert "inf" in str(r.row()["p50_s"])
    with pytest.raises(ValueError):
        SloTracker(duration_s=0.0, slo_latency_s=1.0)
