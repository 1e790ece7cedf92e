"""Direct tests of the data-path codecs."""

import numpy as np
import pytest

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.cluster.server import Cluster
from repro.coding.xorblocks import random_blocks
from repro.core.codecs import CODECS, codec_for
from repro.core.pipeline import scheme_class
from repro.sim.rng import RngHub

CFG = AccessConfig(data_bytes=8 * MB, block_bytes=1 * MB, n_disks=4, redundancy=2.0)


def make_record(scheme_name):
    cluster = Cluster(n_disks=8)
    hub = RngHub(23)
    scheme = scheme_class(scheme_name)(cluster, CFG, hub=hub)
    cluster.redraw_disk_states(hub.fresh("env", 0))
    return scheme.prepare("f", 0)


def blocks():
    return random_blocks(np.random.default_rng(0), CFG.k, CFG.block_bytes)


@pytest.mark.parametrize("name", sorted(CODECS))
def test_every_codec_round_trips(name):
    """Encode every stored id, decode from all of them in placement order."""
    record = make_record(name)
    data = blocks()
    codec = CODECS[name]
    payloads = codec.encode(data, record, CFG)
    stored = [b for p in record.placement for b in p]
    assert set(payloads) == set(stored)
    assert np.array_equal(codec.decode(stored, payloads, record, CFG), data)


def test_codec_for_known_and_unknown():
    assert codec_for("robustore") is CODECS["robustore"]
    with pytest.raises(KeyError):
        codec_for("raid5")


def test_plain_codec_identity():
    record = make_record("raid0")
    data = blocks()
    payloads = CODECS["raid0"].encode(data, record, CFG)
    assert set(payloads) == set(range(CFG.k))
    out = CODECS["raid0"].decode(list(range(CFG.k)), payloads, record, CFG)
    assert np.array_equal(out, data)


def test_plain_codec_missing_block_raises():
    record = make_record("raid0")
    payloads = CODECS["raid0"].encode(blocks(), record, CFG)
    with pytest.raises(ValueError):
        CODECS["raid0"].decode(list(range(CFG.k - 1)), payloads, record, CFG)


def test_replica_codec_any_copy_suffices():
    record = make_record("rraid-s")
    data = blocks()
    codec = CODECS["rraid-s"]
    payloads = codec.encode(data, record, CFG)
    # Use only the last replica round (ids 2k..3k-1 at replicas=3).
    last_round = [2 * CFG.k + i for i in range(CFG.k)]
    out = codec.decode(last_round, payloads, record, CFG)
    assert np.array_equal(out, data)


def test_replica_codec_uncovered_raises():
    record = make_record("rraid-s")
    codec = CODECS["rraid-s"]
    payloads = codec.encode(blocks(), record, CFG)
    with pytest.raises(ValueError):
        codec.decode([0, 1], payloads, record, CFG)


def test_lt_codec_prefix_roundtrip():
    record = make_record("robustore")
    data = blocks()
    codec = CODECS["robustore"]
    payloads = codec.encode(data, record, CFG)
    rng = np.random.default_rng(3)
    order = [b for p in record.placement for b in p]
    rng.shuffle(order)
    out = codec.decode(order, payloads, record, CFG)
    assert np.array_equal(out, data)


def test_rs_group_codec_roundtrip_with_any_fill():
    record = make_record("robustore-rs")
    data = blocks()
    codec = CODECS["robustore-rs"]
    payloads = codec.encode(data, record, CFG)
    rng = np.random.default_rng(4)
    order = list(payloads)
    rng.shuffle(order)
    out = codec.decode(order, payloads, record, CFG)
    assert np.array_equal(out, data)


def test_rs_group_codec_unfilled_group_raises():
    record = make_record("robustore-rs")
    codec = CODECS["robustore-rs"]
    payloads = codec.encode(blocks(), record, CFG)
    group_size = record.coding["k"]
    too_few = list(payloads)[: group_size - 1]
    with pytest.raises(ValueError):
        codec.decode(too_few, payloads, record, CFG)
