"""Tests for the experiment harness and registry (small configurations)."""

import numpy as np
import pytest

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.disk.workload import InDiskLayout
from repro.experiments import REGISTRY
from repro.experiments.harness import TrialPlan, run_point, run_scheme, sweep

SMALL = AccessConfig(data_bytes=32 * MB, block_bytes=1 * MB, n_disks=8, redundancy=3.0)


def small_plan(**kw):
    defaults = dict(access=SMALL, mode="read", pool=16, trials=3, seed=1)
    defaults.update(kw)
    return TrialPlan(**defaults)


def test_run_scheme_read_results():
    results = run_scheme(small_plan(), "robustore")
    assert len(results) == 3
    assert all(np.isfinite(r.latency_s) for r in results)


def test_run_scheme_write_mode():
    results = run_scheme(small_plan(mode="write"), "raid0")
    assert all(r.network_bytes == SMALL.data_bytes for r in results)


def test_run_scheme_raw_mode_unbalanced():
    results = run_scheme(small_plan(mode="raw"), "robustore")
    assert all(np.isfinite(r.latency_s) for r in results)
    assert all("reception_overhead" in r.extra for r in results)


def test_raid0_redundancy_forced_zero():
    results = run_scheme(small_plan(), "raid0")
    assert all(r.io_overhead == 0.0 for r in results)


def test_unknown_scheme_and_mode():
    with pytest.raises(ValueError):
        run_scheme(small_plan(), "raid6")
    with pytest.raises(ValueError):
        run_scheme(small_plan(mode="scrub"), "raid0")


def test_homogeneous_layout_plan():
    plan = small_plan(layout=InDiskLayout(512, 1.0), fixed_zone=2)
    results = run_scheme(plan, "raid0")
    lats = [r.latency_s for r in results]
    assert np.std(lats) < 0.1 * np.mean(lats)  # homogeneous -> steady


def test_background_modes():
    rng = np.random.default_rng(0)
    assert small_plan().bg_intervals(rng) is None
    homo = small_plan(background="homogeneous", bg_interval_s=0.02).bg_intervals(rng)
    assert set(homo.values()) == {0.02}
    het = small_plan(background="heterogeneous").bg_intervals(rng)
    assert len(set(het.values())) > 1
    with pytest.raises(ValueError):
        small_plan(background="weird").bg_intervals(rng)


def test_background_slows_reads():
    quiet = run_scheme(small_plan(), "robustore")
    loaded = run_scheme(
        small_plan(background="homogeneous", bg_interval_s=0.012), "robustore"
    )
    assert np.mean([r.latency_s for r in loaded]) > np.mean(
        [r.latency_s for r in quiet]
    )


def test_run_point_all_schemes():
    point = run_point(small_plan(), schemes=("raid0", "robustore"))
    assert set(point) == {"raid0", "robustore"}
    assert point["robustore"].bandwidth_mbps > 0


def test_sweep_collects_series():
    result = sweep(
        "test",
        "t",
        "x",
        [4, 8],
        lambda h: small_plan(access=AccessConfig(
            data_bytes=16 * MB, n_disks=h, redundancy=2.0)),
        schemes=("robustore",),
    )
    assert result.xs == [4, 8]
    series = result.series("bandwidth_mbps")
    assert len(series["robustore"]) == 2
    assert "bandwidth" in result.text()


def test_registry_complete():
    expected = {
        "fig4_1", "tab5_1", "fig5_1", "fig5_2", "fig5_3",
        "tab6_1", "fig6_5",
        "fig6_06", "fig6_09", "fig6_12", "fig6_12b", "fig6_15", "fig6_18",
        "fig6_21", "fig6_24", "fig6_26", "fig6_29", "fig6_32", "fig6_35",
        "abl_cancel", "abl_improved_lt", "abl_admission",
    }
    assert expected <= set(REGISTRY)
    assert all(callable(fn) for fn in REGISTRY.values())


def test_runner_cli_list(capsys):
    from repro.experiments.runner import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig6_06" in out


def test_runner_cli_unknown_id():
    from repro.experiments.runner import main

    assert main(["nonexistent"]) == 2


def test_runner_csv_output(tmp_path, capsys):
    import os

    from repro.experiments.runner import main

    os.environ["REPRO_TRIALS"] = "2"
    os.environ["REPRO_DATA_MB"] = "16"
    try:
        code = main(["fig6_06", "--csv", str(tmp_path)])
    finally:
        os.environ.pop("REPRO_TRIALS")
        os.environ.pop("REPRO_DATA_MB")
    assert code == 0
    csv_file = tmp_path / "fig6_06.csv"
    assert csv_file.exists()
    header = csv_file.read_text().splitlines()[0]
    assert header.startswith("scheme,x,bandwidth_mbps")


def test_write_csv_skips_plain_tables(tmp_path):
    from repro.experiments.runner import write_csv

    class Plain:
        def text(self):
            return "x"

    assert write_csv(Plain(), "p", str(tmp_path)) is None
