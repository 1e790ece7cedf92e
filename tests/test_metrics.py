"""Tests for metric aggregation and reporting."""

import numpy as np
import pytest

from repro.accesscore.result import AccessResult
from repro.accesscore.routing import MB
from repro.metrics.reporting import format_series, format_table
from repro.metrics.stats import summarize


def result(latency, net_mb=None, data_mb=4, rec=None):
    extra = {} if rec is None else {"reception_overhead": rec}
    return AccessResult(
        latency_s=latency,
        data_bytes=data_mb * MB,
        network_bytes=(net_mb if net_mb is not None else data_mb) * MB,
        disk_blocks=data_mb,
        blocks_received=data_mb,
        extra=extra,
    )


def test_summarize_basic():
    s = summarize([result(1.0), result(2.0)])
    assert s.n_trials == 2
    assert s.latency_mean_s == pytest.approx(1.5)
    assert s.latency_std_s == pytest.approx(0.5)
    assert s.bandwidth_mbps == pytest.approx((4 / 1 + 4 / 2) / 2)
    assert s.io_overhead == pytest.approx(0.0)


def test_summarize_io_overhead():
    s = summarize([result(1.0, net_mb=6)])
    assert s.io_overhead == pytest.approx(0.5)


def test_summarize_reception_overhead_optional():
    s = summarize([result(1.0)])
    assert s.reception_overhead is None
    s2 = summarize([result(1.0, rec=0.4), result(1.0, rec=0.6)])
    assert s2.reception_overhead == pytest.approx(0.5)


def test_summarize_excludes_infinite_latency():
    s = summarize([result(1.0), result(float("inf"))])
    assert s.n_trials == 2
    assert s.latency_mean_s == pytest.approx(1.0)


def test_summarize_all_infinite():
    s = summarize([result(float("inf"))])
    assert s.bandwidth_mbps == 0.0
    assert s.latency_mean_s == float("inf")


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize([])


def test_format_series_alignment():
    text = format_series("T", "x", [1, 2], {"a": [1.0, 2.0], "b": [3.0, float("nan")]})
    assert "T" in text
    lines = text.splitlines()
    assert len(lines) == 6
    assert "—" in lines[-1]  # NaN rendered as a dash


def test_format_table():
    text = format_table("title", [{"a": 1, "b": 2}, {"a": 3, "b": 4}])
    assert "title" in text
    assert text.count("\n") == 4
    assert format_table("empty", []) == "empty"


def test_format_bars_proportional():
    from repro.metrics.reporting import format_bars

    text = format_bars("B", {"a": [10.0, 20.0], "b": [float("inf"), 5.0]}, [1, 2], width=10)
    lines = text.splitlines()
    # Peak (20) gets the full width; 10 gets half; inf renders as a dash.
    assert any("██████████" in ln for ln in lines)
    assert any("█████ " in ln and "10.0" in ln for ln in lines)
    assert any("—" in ln for ln in lines)


def test_format_bars_all_zero():
    from repro.metrics.reporting import format_bars

    text = format_bars("Z", {"a": [0.0, 0.0]}, [1, 2])
    assert "0.0" in text


# ---------------------------------------------------------------------------
# percentiles: histogram approximation vs numpy


class TestFixedBinHistogram:
    def hist_and_values(self, n=50_000):
        from repro.metrics.stats import FixedBinHistogram

        rng = np.random.default_rng(7)
        values = np.clip(rng.lognormal(0.0, 1.2, size=n), 1e-3, 1e4)
        h = FixedBinHistogram()
        h.add_many(values)
        return h, values

    def test_percentiles_conservative_and_tight(self):
        h, values = self.hist_and_values()
        for q in (50.0, 90.0, 99.0, 99.9):
            exact = float(np.percentile(values, q))
            approx = h.percentile(q)
            # Upper bin edge: never under-reports, within one bin's width.
            assert approx >= exact * 0.999
            assert approx <= exact * 1.05

    def test_streaming_equals_batch(self):
        from repro.metrics.stats import FixedBinHistogram

        h, values = self.hist_and_values(n=500)
        one = FixedBinHistogram()
        for v in values:
            one.add(float(v))
        assert np.array_equal(one.counts, h.counts)
        assert one.p50 == h.p50 and one.p999 == h.p999

    def test_overflow_bin_and_nonfinite(self):
        from repro.metrics.stats import FixedBinHistogram

        h = FixedBinHistogram(lo=1.0, hi=10.0, bins=4)
        h.add(1e9)  # above hi: lands in the +inf overflow bin
        assert h.percentile(99.0) == float("inf")
        with pytest.raises(ValueError):
            h.add(float("nan"))
        with pytest.raises(ValueError):
            h.add_many([1.0, float("inf")])
