"""Tests for the update access, QoS planning, and the file API facade."""

import numpy as np
import pytest

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.cluster.server import Cluster
from repro.core import SCHEMES
from repro.core.api import StorageClient
from repro.core.codecs import codec_for
from repro.core.qos import DiskProfile, QoSOptions, plan_access
from repro.core.update import affected_blocks, update_access, update_amplification
from repro.sim.rng import RngHub

CFG = AccessConfig(data_bytes=32 * MB, block_bytes=1 * MB, n_disks=8, redundancy=3.0)


def make_scheme():
    cluster = Cluster(n_disks=16)
    hub = RngHub(3)
    scheme = SCHEMES["robustore"](cluster, CFG, hub=hub)
    cluster.redraw_disk_states(hub.fresh("env", 0))
    scheme.prepare("f", 0)
    return scheme


class TestUpdate:
    def test_affected_blocks_small_fraction(self):
        scheme = make_scheme()
        affected = affected_blocks(scheme, "f", [0])
        record = scheme.metadata.lookup("f")
        assert 0 < len(affected) < 0.2 * record.total_blocks

    def test_update_access_rewrites_only_affected(self):
        scheme = make_scheme()
        r = update_access(scheme, "f", [0, 1], trial=1)
        assert r.disk_blocks == r.extra["affected_coded_blocks"]
        assert 0 < r.extra["affected_fraction"] < 0.3
        assert np.isfinite(r.latency_s)

    def test_update_nothing(self):
        scheme = make_scheme()
        record = scheme.metadata.lookup("f")
        graph = record.extra["graph"]
        # An original block adjacent to no *stored* coded block is
        # impossible with full balanced placement; empty input instead.
        r = update_access(scheme, "f", [], trial=1)
        assert r.disk_blocks == 0

    def test_update_amplification_near_mean_degree(self):
        scheme = make_scheme()
        record = scheme.metadata.lookup("f")
        graph = record.extra["graph"]
        amp = update_amplification(scheme, "f")
        mean_deg = graph.edge_count / graph.k
        assert amp == pytest.approx(mean_deg, rel=0.4)


class TestQoS:
    def test_bandwidth_target_raises_disk_count(self):
        base = AccessConfig(n_disks=8)
        qos = QoSOptions(target_bandwidth_mbps=900)
        out = plan_access(base, qos, DiskProfile(avg_bandwidth_mbps=15, pool_size=128))
        assert out.n_disks == 60

    def test_disk_count_clipped_to_pool(self):
        base = AccessConfig(n_disks=8)
        qos = QoSOptions(target_bandwidth_mbps=10_000)
        out = plan_access(base, qos, DiskProfile(pool_size=64))
        assert out.n_disks == 64

    def test_redundancy_rule_5_3_2(self):
        base = AccessConfig()
        qos = QoSOptions(redundancy_budget=10)
        out = plan_access(base, qos, DiskProfile(avg_bandwidth_mbps=15, peak_bandwidth_mbps=50))
        # D = 1.5 * 50/15 - 1 = 4.0
        assert out.redundancy == pytest.approx(4.0)

    def test_redundancy_budget_caps(self):
        base = AccessConfig()
        qos = QoSOptions(redundancy_budget=1.0)
        out = plan_access(base, qos)
        assert out.redundancy == 1.0

    def test_tight_robustness_shrinks_blocks(self):
        base = AccessConfig(block_bytes=8 * MB)
        out = plan_access(base, QoSOptions(max_latency_std_s=0.1))
        assert out.block_bytes == 1 * MB

    def test_nonpositive_redundancy_budget_rejected(self):
        base = AccessConfig()
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="redundancy_budget"):
                plan_access(base, QoSOptions(redundancy_budget=bad))

    def test_nonpositive_bandwidth_target_rejected(self):
        base = AccessConfig()
        for bad in (0.0, -50.0):
            with pytest.raises(ValueError, match="target_bandwidth_mbps"):
                plan_access(base, QoSOptions(target_bandwidth_mbps=bad))

    def test_unset_bandwidth_target_means_no_requirement(self):
        base = AccessConfig(n_disks=8)
        out = plan_access(base, QoSOptions(), DiskProfile(pool_size=128))
        assert out.n_disks == 8


class TestApi:
    def test_roundtrip_bytes_exact(self):
        client = StorageClient(
            config=AccessConfig(data_bytes=8 * MB, n_disks=8, redundancy=3.0), seed=1
        )
        data = np.random.default_rng(0).integers(0, 256, 3 * MB + 123, np.uint8).tobytes()
        with client.open("x", "w") as f:
            res_w = f.write(data)
        with client.open("x", "r") as f:
            out, res_r = f.read()
        assert out == data
        assert res_w.latency_s > 0 and res_r.latency_s > 0

    def test_mode_enforced(self):
        client = StorageClient(seed=2)
        with client.open("y", "w") as f:
            f.write(b"\x00" * 1024)
        handle = client.open("y", "r")
        with pytest.raises(PermissionError):
            handle.write(b"123")
        handle.close()
        with pytest.raises(KeyError):
            client.open("zz", "r")

    def test_closed_handle_rejects_io(self):
        client = StorageClient(seed=3)
        f = client.open("z", "w")
        f.close()
        with pytest.raises(ValueError):
            f.write(b"data")

    def test_write_lock_released_on_close(self):
        client = StorageClient(seed=4)
        with client.open("w1", "w") as f:
            f.write(b"\x01" * 2048)
        # Reopening after the context manager exits must not raise.
        with client.open("w1", "r") as f:
            out, _ = f.read()
        assert out == b"\x01" * 2048

    def test_qos_open_adjusts_config(self):
        client = StorageClient(seed=5)
        handle = client.open("q", "w", qos=QoSOptions(redundancy_budget=1.5))
        assert handle.cfg.redundancy <= 1.5
        handle.close()


class TestMultiSchemeApi:
    @pytest.mark.parametrize(
        "scheme",
        ["raid0", "rraid-s", "rraid-a", "raid0+1", "robustore", "robustore-rs"],
    )
    def test_roundtrip_every_codec(self, scheme):
        client = StorageClient(
            scheme,
            config=AccessConfig(data_bytes=8 * MB, n_disks=8, redundancy=2.0),
            seed=31,
        )
        data = np.random.default_rng(5).integers(0, 256, 5 * MB + 7, np.uint8).tobytes()
        with client.open("f", "w") as f:
            f.write(data)
        with client.open("f", "r") as f:
            out, res = f.read()
        assert out == data
        assert np.isfinite(res.latency_s)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            StorageClient("raid5")  # parity XOR not wired into the file API

    def test_default_scheme_is_robustore(self):
        client = StorageClient(seed=1)
        assert client.scheme_name == "robustore"
        assert client.codec is codec_for("robustore")


class TestApiUpdate:
    def make_client(self, scheme="robustore"):
        return StorageClient(
            scheme,
            config=AccessConfig(data_bytes=8 * MB, n_disks=8, redundancy=3.0),
            seed=41,
        )

    def update_block_one(self, scheme):
        """Write 4 MB, replace block 1, read back; return (update, bytes, expected)."""
        client = self.make_client(scheme)
        rng = np.random.default_rng(1)
        data = rng.integers(0, 256, 4 * MB, np.uint8).tobytes()
        handle = client.open("u", "w")
        handle.write(data)
        new_block = bytes([0xAB]) * MB
        res = handle.update(1, new_block)
        handle.close()
        with client.open("u", "r") as f:
            out, _ = f.read()
        return res, out, data[:MB] + new_block + data[2 * MB:]

    def test_update_changes_bytes_and_localises_rewrites(self):
        res, out, expect = self.update_block_one("robustore")
        # Only a small fraction of the coded blocks is rewritten.
        assert 0 < res.extra["affected_fraction"] < 0.5
        assert out == expect

    def test_update_works_for_every_lt_coded_scheme(self):
        # lt+adaptive stores the same LTCodec payloads as robustore.
        res, out, expect = self.update_block_one("lt+adaptive")
        assert 0 < res.extra["affected_fraction"] < 0.5
        assert out == expect

    def test_update_validation(self):
        client = self.make_client()
        handle = client.open("u2", "w")
        handle.write(b"\x00" * (2 * MB))
        with pytest.raises(IndexError):
            handle.update(99, b"x")
        with pytest.raises(ValueError):
            handle.update(0, b"x" * (2 * MB))
        handle.close()
        read_handle = client.open("u2", "r")
        with pytest.raises(PermissionError):
            read_handle.update(0, b"x")
        read_handle.close()

    def test_update_unsupported_scheme(self):
        client = StorageClient(
            "raid0", config=AccessConfig(data_bytes=4 * MB, n_disks=4), seed=2
        )
        handle = client.open("u3", "w")
        handle.write(b"\x01" * MB)
        with pytest.raises(NotImplementedError):
            handle.update(0, b"y")
        handle.close()
