"""Small-surface tests for glue modules (config knobs, base classes,
calibration formatting)."""

import numpy as np
import pytest

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.cluster.server import Cluster
from repro.core.base import SchemeBase
from repro.disk.calibration import CalibrationCell, format_table, grid_statistics
from repro.experiments import config as C
from repro.sim.rng import RngHub


class TestExperimentConfig:
    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "7")
        monkeypatch.setenv("REPRO_DATA_MB", "128")
        assert C.trials() == 7
        assert C.data_mb() == 128
        assert C.baseline_access().data_bytes == 128 * MB

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRIALS", raising=False)
        monkeypatch.delenv("REPRO_DATA_MB", raising=False)
        assert C.trials(5) == 5
        cfg = C.baseline_access(n_disks=16)
        assert cfg.n_disks == 16
        assert cfg.redundancy == 3.0

    def test_scheme_order(self):
        assert C.ALL_SCHEMES == ("raid0", "rraid-s", "rraid-a", "robustore")


class TestSchemeBase:
    def test_abstract_methods_raise(self):
        cluster = Cluster(n_disks=4)
        base = SchemeBase(cluster, AccessConfig(data_bytes=4 * MB, n_disks=4), hub=RngHub(0))
        with pytest.raises(NotImplementedError):
            base.prepare("f", 0)
        with pytest.raises(NotImplementedError):
            base.write("f", 0)
        with pytest.raises(NotImplementedError):
            base.read("f", 0)

    def test_select_disks_deterministic_per_trial(self):
        cluster = Cluster(n_disks=16)
        base = SchemeBase(cluster, AccessConfig(data_bytes=4 * MB, n_disks=4), hub=RngHub(1))
        a = base.select_disks(3).tolist()
        b = base.select_disks(3).tolist()
        assert a == b  # trial-keyed, not stateful
        assert a != base.select_disks(4).tolist()

    def test_service_rng_factory_streams_differ(self):
        cluster = Cluster(n_disks=4)
        base = SchemeBase(cluster, AccessConfig(data_bytes=4 * MB, n_disks=4), hub=RngHub(2))
        f = base.service_rng_factory(0, "read")
        assert f(0).random() != f(1).random()
        g = base.service_rng_factory(0, "write")
        assert f(0).random() != g(0).random()


class TestCalibrationFormatting:
    def test_grid_statistics_and_table(self):
        cells = [
            CalibrationCell(8, 0.0, 0.5),
            CalibrationCell(8, 1.0, 4.0),
            CalibrationCell(16, 0.0, 1.0),
            CalibrationCell(16, 1.0, 8.0),
        ]
        stats = grid_statistics(cells)
        assert stats["min_mbps"] == 0.5
        assert stats["max_mbps"] == 8.0
        assert stats["spread"] == pytest.approx(16.0)
        text = format_table(cells)
        assert "p_seq=0" in text and "p_seq=1" in text
