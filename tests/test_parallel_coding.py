"""Tests for the parallel coding extension."""

import numpy as np
import pytest

from repro.coding.lt import ImprovedLTCode
from repro.coding.parallel import encode_throughput, parallel_encode
from repro.coding.xorblocks import random_blocks


@pytest.fixture()
def setup_code():
    rng = np.random.default_rng(0)
    code = ImprovedLTCode(32, c=0.5, delta=0.5)
    graph = code.build_graph(128, rng)
    data = random_blocks(rng, 32, 64)
    return code, graph, data


def test_parallel_encode_bit_identical(setup_code):
    code, graph, data = setup_code
    serial = code.encode(data, graph)
    for workers in (1, 2, 4):
        parallel = parallel_encode(code, data, graph, workers=workers)
        assert np.array_equal(parallel, serial)


def test_parallel_encode_validates(setup_code):
    code, graph, data = setup_code
    with pytest.raises(ValueError):
        parallel_encode(code, data[:10], graph)
    with pytest.raises(ValueError):
        parallel_encode(code, data, graph, workers=0)


def test_small_n_falls_back_to_serial(setup_code):
    code, graph, data = setup_code
    out = parallel_encode(code, data, graph, workers=100)  # n < 2*workers
    assert np.array_equal(out, code.encode(data, graph))


def test_encode_throughput_positive(setup_code):
    code, graph, _ = setup_code
    rng = np.random.default_rng(2)
    thr = encode_throughput(code, graph, block_len=1024, workers=2, rng=rng)
    assert thr > 0
