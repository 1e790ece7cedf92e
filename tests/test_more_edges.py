"""Additional edge-case tests across modules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.coding.lt import ImprovedLTCode, LTGraph
from repro.coding.peeling import PeelingDecoder
from repro.disk.drive import DiskDrive, DiskRequest
from repro.disk.mechanics import DiskMechanics
from repro.disk.workload import BackgroundWorkload
from repro.sim import Environment


class TestDriveEdges:
    def test_service_time_override(self):
        env = Environment()
        drive = DiskDrive(
            env,
            DiskMechanics(),
            np.random.default_rng(0),
            service_time_fn=lambda req: 0.25,
        )
        r1 = drive.read(0, 8)
        r2 = drive.read(10_000_000, 8)
        env.run()
        assert r1.done.value == pytest.approx(0.25)
        assert r2.done.value == pytest.approx(0.5)

    def test_cancel_mid_queue_spares_in_service(self):
        env = Environment()
        drive = DiskDrive(
            env,
            DiskMechanics(),
            np.random.default_rng(0),
            service_time_fn=lambda req: 1.0,
        )
        first = drive.submit(DiskRequest(lba=0, sectors=8, tag="a"))
        rest = [drive.submit(DiskRequest(lba=0, sectors=8, tag="a")) for _ in range(3)]

        def canceller(env):
            yield env.timeout(0.5)  # first request is mid-service
            drive.cancel(lambda r: r.tag == "a")

        env.process(canceller(env))
        env.run()
        assert first.done.value == pytest.approx(1.0)  # completed anyway
        assert all(r.done.value is None for r in rest)  # queued ones died

    def test_disabled_background_not_attached(self):
        env = Environment()
        drive = DiskDrive(env, DiskMechanics(), np.random.default_rng(0))
        drive.attach_background(BackgroundWorkload(None, np.random.default_rng(1)))
        env.run(until=0.5)
        assert drive.served_requests == 0


class TestAccessConfigProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=64),
        st.floats(min_value=0.0, max_value=9.0),
    )
    def test_n_coded_consistent(self, blocks, d):
        cfg = AccessConfig(data_bytes=blocks * MB, redundancy=d)
        assert cfg.k == blocks
        assert cfg.n_coded >= cfg.k
        assert cfg.n_coded == max(cfg.k, round((1 + d) * cfg.k))
        assert cfg.replicas == round(d) + 1


class TestGraphEdges:
    def test_graph_stats_empty(self):
        g = LTGraph(4)
        assert g.n == 0
        assert g.edge_count == 0
        assert list(g.original_degrees()) == [0, 0, 0, 0]

    def test_decoder_rejects_negative_ids(self):
        code = ImprovedLTCode(8, c=0.5, delta=0.5)
        graph = code.build_graph(16, np.random.default_rng(0))
        dec = PeelingDecoder(graph)
        with pytest.raises(IndexError):
            dec.add(-1)

    def test_build_graph_impossible_small_n(self):
        code = ImprovedLTCode(16, c=0.5, delta=0.5)
        with pytest.raises(RuntimeError):
            code.build_graph(4, np.random.default_rng(0))

    def test_mean_degree_constant_under_extension(self):
        code = ImprovedLTCode(64, c=1.0, delta=0.5)
        rng = np.random.default_rng(5)
        g = code.build_graph(128, rng)
        before = g.edge_count / g.n
        code.extend_graph(g, 128, rng)
        after = g.edge_count / g.n
        assert after == pytest.approx(before, rel=0.3)
