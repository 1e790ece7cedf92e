"""Tests for LT codes (original and improved)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import ImprovedLTCode, LTCode
from repro.coding.peeling import PeelingDecoder, blocks_needed, decodable
from repro.coding.xorblocks import random_blocks


def test_graph_shape():
    code = LTCode(32, c=0.5, delta=0.5)
    rng = np.random.default_rng(0)
    graph = code.build_graph(96, rng)
    assert graph.k == 32
    assert graph.n == 96
    assert all(1 <= len(nb) <= 32 for nb in graph.neighbors)
    assert all(len(set(nb.tolist())) == len(nb) for nb in graph.neighbors)


def test_graph_is_rateless_extendable():
    code = LTCode(16)
    rng = np.random.default_rng(1)
    graph = code.build_graph(20, rng)
    code.extend_graph(graph, 12, rng)
    assert graph.n == 32


def test_encode_decode_roundtrip_with_data():
    rng = np.random.default_rng(2)
    k = 64
    code = ImprovedLTCode(k, c=0.5, delta=0.5)
    graph = code.build_graph(4 * k, rng)
    data = random_blocks(rng, k, 32)
    coded = code.encode(data, graph)

    decoder = PeelingDecoder(graph, block_len=32)
    order = rng.permutation(graph.n)
    for cid in order:
        decoder.add(int(cid), coded[cid])
        if decoder.is_complete:
            break
    assert decoder.is_complete
    assert np.array_equal(decoder.get_data(), data)


def test_improved_graph_always_decodable():
    rng = np.random.default_rng(3)
    for k in (8, 32, 128):
        code = ImprovedLTCode(k, c=0.5, delta=0.5)
        graph = code.build_graph(3 * k, rng)
        assert decodable(graph)


def test_improved_uniform_coverage():
    """Original-block degrees differ by at most one (§5.2.3 improvement 2)."""
    rng = np.random.default_rng(4)
    k = 128
    code = ImprovedLTCode(k, c=0.5, delta=0.5)
    graph = code.build_graph(4 * k, rng)
    deg = graph.original_degrees()
    assert deg.max() - deg.min() <= 1


def test_original_coverage_is_irregular():
    """The unmodified LT encoder leaves an irregular coverage profile."""
    rng = np.random.default_rng(5)
    k = 128
    code = LTCode(k, c=0.5, delta=0.5)
    graph = code.build_graph(4 * k, rng)
    deg = graph.original_degrees()
    assert deg.max() - deg.min() > 1


def test_improved_build_raises_when_n_too_small():
    code = ImprovedLTCode(64, c=0.5, delta=0.5, max_attempts=3)
    rng = np.random.default_rng(6)
    with pytest.raises(RuntimeError):
        code.build_graph(8, rng)  # far fewer coded blocks than k


def test_encode_validates_block_count():
    code = LTCode(8)
    rng = np.random.default_rng(8)
    graph = code.build_graph(16, rng)
    with pytest.raises(ValueError):
        code.encode(np.zeros((4, 8), np.uint8), graph)


def test_affected_coded_blocks_for_update():
    rng = np.random.default_rng(9)
    code = ImprovedLTCode(16, c=0.5, delta=0.5)
    graph = code.build_graph(64, rng)
    affected = graph.affected_coded_blocks(3)
    for j in affected:
        assert 3 in graph.neighbors[j]
    for j in set(range(graph.n)) - set(affected):
        assert 3 not in graph.neighbors[j]
    with pytest.raises(IndexError):
        graph.affected_coded_blocks(99)


def test_update_touches_small_fraction():
    """§4.3.4: one original block maps to ~avg-degree coded blocks (<~5%)."""
    rng = np.random.default_rng(10)
    k = 256
    code = ImprovedLTCode(k, c=1.0, delta=0.1)
    graph = code.build_graph(4 * k, rng)
    affected = graph.affected_coded_blocks(0)
    assert 0 < len(affected) < 0.05 * graph.n


def test_reception_overhead_in_paper_band():
    """K=1024, C=1, delta=0.1 -> overhead roughly 0.3..0.7 (Fig 5-1)."""
    rng = np.random.default_rng(11)
    k = 1024
    code = ImprovedLTCode(k, c=1.0, delta=0.1)
    graph = code.build_graph(4 * k, rng)
    overheads = []
    for trial in range(5):
        order = rng.permutation(graph.n)
        used = blocks_needed(graph, order)
        overheads.append(used / k - 1.0)
    mean = float(np.mean(overheads))
    assert 0.2 < mean < 0.9


def test_build_is_deterministic_per_seed():
    code = ImprovedLTCode(32, c=0.5, delta=0.5)
    g1 = code.build_graph(64, np.random.default_rng(42))
    g2 = code.build_graph(64, np.random.default_rng(42))
    assert all(np.array_equal(a, b) for a, b in zip(g1.neighbors, g2.neighbors))


def test_mean_coded_degree_property():
    code = LTCode(512, c=1.0, delta=0.1)
    rng = np.random.default_rng(12)
    graph = code.build_graph(4096, rng)
    sampled = graph.coded_degrees().mean()
    assert sampled == pytest.approx(code.mean_coded_degree, rel=0.1)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=4, max_value=64),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_roundtrip_property(k, seed):
    """Any decodable prefix reconstructs the data exactly."""
    rng = np.random.default_rng(seed)
    code = ImprovedLTCode(k, c=0.5, delta=0.5)
    graph = code.build_graph(4 * k, rng)
    data = random_blocks(rng, k, 8)
    coded = code.encode(data, graph)
    decoder = PeelingDecoder(graph, block_len=8)
    for cid in rng.permutation(graph.n):
        decoder.add(int(cid), coded[cid])
        if decoder.is_complete:
            break
    assert decoder.is_complete
    assert np.array_equal(decoder.get_data(), data)
