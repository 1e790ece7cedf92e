"""Tracer core: spans and offsets, counters, Chrome export."""

import json
import pathlib

import pytest

from repro.obs import NULL_TRACER, Tracer, current_tracer, use_tracer

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_trace.json"


def build_reference_tracer() -> Tracer:
    """A small deterministic trace exercising every record type.

    The golden file under tests/data was generated from exactly this
    construction — regenerate it with
    ``PYTHONPATH=src python -m tests.make_golden`` after a deliberate
    format change.
    """
    tr = Tracer()
    tr.span("scheme.read:robustore", "scheme", 0.0, 2.5, track="scheme",
            args={"trial": 0})
    tr.span("drive.seek", "drive", 0.25, 0.4, track="disk0")
    tr.span("drive.service", "drive", 0.25, 1.0, track="disk0")
    tr.instant("scheme.cancel", "scheme", 2.0, track="scheme",
               args={"cancelled": 3})
    tr.counter("drive.queue_depth", 0.5, 4, track="disk0")
    tr.counter("drive.queue_depth", 1.5, 1, track="disk0")
    tr.count("scheme.reads")
    tr.count("drive.cancelled_requests", 3)
    tr.account_bytes("network", 12 * 1024)
    tr.account_bytes("consumed", 8 * 1024)
    tr.account_bytes("data", 8 * 1024)
    tr.offset = 10.0
    tr.span("scheme.read:robustore", "scheme", 0.0, 1.25, track="scheme",
            args={"trial": 1})
    return tr


# -- spans --------------------------------------------------------------------

def test_span_offset_applied_and_duration_clamped():
    tracer = Tracer()
    tracer.offset = 5.0
    tracer.span("s", "c", 1.0, 3.0)
    tracer.span("weird", "c", 2.0, 1.0)  # end < start -> zero-length
    assert tracer.spans[0].ts == 6.0 and tracer.spans[0].dur == 2.0
    assert tracer.spans[1].dur == 0.0
    tracer.instant("i", "c", 1.0)
    assert tracer.instants[0].ts == 6.0


# -- counters -----------------------------------------------------------------

def test_count_is_monotone_and_rejects_negative_deltas():
    tracer = Tracer()
    seen = []
    for delta in (1, 0, 5, 2):
        tracer.count("x", delta)
        seen.append(tracer.counters["x"])
    assert seen == sorted(seen)  # never decreases
    assert tracer.counters["x"] == 8
    with pytest.raises(ValueError):
        tracer.count("x", -1)
    with pytest.raises(ValueError):
        tracer.account_bytes("network", -10)


# -- NullTracer ---------------------------------------------------------------

def test_null_tracer_is_disabled():
    """Every instrumentation site checks this flag before it records."""
    assert NULL_TRACER.enabled is False


def test_ambient_tracer_stack():
    assert current_tracer() is NULL_TRACER
    t1, t2 = Tracer(), Tracer()
    with use_tracer(t1):
        assert current_tracer() is t1
        with use_tracer(t2):
            assert current_tracer() is t2
        assert current_tracer() is t1
    assert current_tracer() is NULL_TRACER


# -- Chrome export ------------------------------------------------------------

def test_chrome_export_matches_golden_file():
    got = build_reference_tracer().to_chrome()
    want = json.loads(GOLDEN.read_text())
    assert got == want


def test_chrome_export_shape():
    trace = build_reference_tracer().to_chrome()
    events = trace["traceEvents"]
    assert trace["displayTimeUnit"] == "ms"
    phases = {e["ph"] for e in events}
    assert phases == {"M", "X", "i", "C"}
    # Non-metadata events are sorted by timestamp.
    ts = [e["ts"] for e in events if e["ph"] != "M"]
    assert ts == sorted(ts)
    # Times are microseconds: the 2.5 s span is 2.5e6 us long.
    read0 = next(e for e in events
                 if e["ph"] == "X" and e["args"].get("trial") == 0)
    assert read0["dur"] == pytest.approx(2.5e6)
    # The offset placed trial 1 at 10 s.
    read1 = next(e for e in events
                 if e["ph"] == "X" and e["args"].get("trial") == 1)
    assert read1["ts"] == pytest.approx(10e6)
    # Track names travel as thread_name metadata.
    names = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert {"scheme", "disk0"} <= names
    # Totals metadata carries counters and the byte ledger.
    totals = next(e for e in events if e.get("name") == "obs_totals")
    assert totals["args"]["counters"]["scheme.reads"] == 1
    assert totals["args"]["bytes"] == {
        "network": 12288, "consumed": 8192, "data": 8192,
    }


def test_write_chrome_roundtrip(tmp_path):
    tracer = build_reference_tracer()
    path = tmp_path / "trace.json"
    tracer.write_chrome(str(path))
    assert json.loads(path.read_text()) == tracer.to_chrome()
