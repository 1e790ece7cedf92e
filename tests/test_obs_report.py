"""TraceReport: byte-ledger reconciliation with AccessResult, aggregation."""

import numpy as np

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.experiments.harness import TRACE_TRIAL_GAP_S, TrialPlan, run_scheme
from repro.metrics.stats import summarize
from repro.obs import TraceReport, Tracer, load_trace, use_tracer
from repro.obs.report import main as report_main

SMALL = AccessConfig(data_bytes=32 * MB, block_bytes=1 * MB, n_disks=8, redundancy=3.0)


def small_plan(**kw):
    defaults = dict(access=SMALL, mode="read", pool=16, trials=1, seed=7)
    defaults.update(kw)
    return TrialPlan(**defaults)


def test_robustore_byte_ledger_reconciles_exactly():
    """One RobuSTore read trial: tracer ledger == AccessResult, to the byte.

    cancelled + consumed must equal the network bytes exactly, and the
    ledger-derived io_overhead must equal both the per-access and the
    aggregated MetricSummary value (all exact integer arithmetic).
    """
    tracer = Tracer()
    results = run_scheme(small_plan(), "robustore", tracer=tracer)
    (result,) = results
    report = TraceReport.from_tracer(tracer)

    assert report.network_bytes == result.network_bytes
    assert report.data_bytes == result.data_bytes == SMALL.data_bytes
    assert report.consumed_bytes == result.blocks_received * SMALL.block_bytes
    assert report.consumed_bytes + report.cancelled_bytes == report.network_bytes
    assert report.cancelled_bytes >= 0

    assert report.io_overhead == result.io_overhead
    summary = summarize(results)
    assert report.io_overhead == summary.io_overhead


def test_traced_run_covers_all_four_layers():
    """A traced run produces spans from the drive, filer and scheme layers,
    and none from the DES kernel, which takes no tracer."""
    tracer = Tracer()
    run_scheme(small_plan(trials=2), "robustore", tracer=tracer)
    span_cats = {s.cat for s in tracer.spans}
    assert {"drive", "filer", "scheme"} <= span_cats
    assert "sim" not in span_cats
    # ... and the export preserves them.
    chrome_cats = {
        e["cat"] for e in tracer.to_chrome()["traceEvents"] if e["ph"] == "X"
    }
    assert {"drive", "filer", "scheme"} <= chrome_cats


def test_tracing_does_not_perturb_results():
    """Installing a tracer must not change any simulation outcome."""
    plain = run_scheme(small_plan(trials=3), "robustore")
    traced = run_scheme(small_plan(trials=3), "robustore", tracer=Tracer())
    for a, b in zip(plain, traced):
        assert a.latency_s == b.latency_s
        assert a.network_bytes == b.network_bytes
        assert a.blocks_received == b.blocks_received


def test_trials_laid_out_on_global_timeline():
    """Consecutive trials occupy disjoint stretches of the traced timeline."""
    tracer = Tracer()
    run_scheme(small_plan(trials=3), "raid0", tracer=tracer)
    reads = sorted(
        (s for s in tracer.spans if s.name == "scheme.read:raid0"),
        key=lambda s: s.ts,
    )
    assert len(reads) == 3
    for earlier, later in zip(reads, reads[1:]):
        assert earlier.end <= later.ts  # no overlap: trial t+1 starts after t


def test_trial_t_starts_after_every_earlier_latency_and_gap():
    """Trial t opens at base + sum over i < t of (latency_i + gap), added
    in trial order, so every traced timestamp keeps its place."""
    tracer = Tracer()
    tracer.offset = base = 3.25
    results = run_scheme(small_plan(trials=4), "robustore", tracer=tracer)
    assert all(0.0 < r.latency_s < np.inf for r in results)
    opens = [s.ts for s in tracer.spans if s.name == "scheme.open"]
    expected, elapsed = [], 0.0
    for r in results:
        expected.append(base + elapsed)
        elapsed += r.latency_s + TRACE_TRIAL_GAP_S
    assert opens == expected
    # The next run continues where this one ends.
    assert tracer.offset == base + elapsed


def test_ambient_tracer_is_picked_up_by_run_scheme():
    tracer = Tracer()
    with use_tracer(tracer):
        run_scheme(small_plan(), "rraid-s")
    assert tracer.counters.get("scheme.reads") == 1


def test_report_chrome_roundtrip_and_cli(tmp_path, capsys):
    tracer = Tracer()
    run_scheme(small_plan(trials=2), "robustore", tracer=tracer)
    path = tmp_path / "trace.json"
    tracer.write_chrome(str(path))

    direct = TraceReport.from_tracer(tracer)
    loaded = load_trace(str(path))
    assert loaded.bytes == direct.bytes
    assert loaded.counters == direct.counters
    assert loaded.stage_spans == direct.stage_spans
    assert loaded.io_overhead == direct.io_overhead
    assert loaded.queue_depth_hist == direct.queue_depth_hist
    for cat, total in direct.stage_time.items():
        assert loaded.stage_time[cat] == np.round(total, 6) or (
            abs(loaded.stage_time[cat] - total) < 1e-5
        )

    assert report_main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "byte accounting" in out and "io_overhead" in out


def test_report_render_sections():
    tracer = Tracer()
    run_scheme(small_plan(), "robustore", tracer=tracer)
    text = TraceReport.from_tracer(tracer).render()
    for section in ("per-stage time", "top spans", "byte accounting",
                    "counters", "cancelled"):
        assert section in text
