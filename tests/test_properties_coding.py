"""Property-based tests (hypothesis) for the erasure-coding stack.

The contract every code must honour under fault injection:

* decode(encode(x)) == x whenever enough coded blocks survive;
* with fewer surviving blocks than the information-theoretic minimum the
  decoder fails *cleanly* (``None`` / an exception / not-complete) — it
  never fabricates data;
* whenever a decoder claims success, the output is exactly the input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.lt import ImprovedLTCode
from repro.coding.peeling import PeelingDecoder
from repro.coding.reed_solomon import ReedSolomonCode

BLOCK_LEN = 16  # payload bytes per block: small keeps examples fast


def random_data(rng: np.random.Generator, k: int) -> np.ndarray:
    return rng.integers(0, 256, size=(k, BLOCK_LEN), dtype=np.uint8)


# ------------------------------------------------------------------ Reed-Solomon


class TestReedSolomonProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_any_k_of_n_round_trip(self, k, parity, seed):
        rng = np.random.default_rng(seed)
        code = ReedSolomonCode(k, k + parity)
        data = random_data(rng, k)
        coded = code.encode(data)
        survivors = rng.permutation(k + parity)[:k]
        decoded = code.decode(survivors, coded[survivors])
        assert np.array_equal(decoded, data)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_fewer_than_k_blocks_fail_cleanly(self, k, parity, seed):
        rng = np.random.default_rng(seed)
        code = ReedSolomonCode(k, k + parity)
        coded = code.encode(random_data(rng, k))
        survivors = rng.permutation(k + parity)[: k - 1]
        with pytest.raises(ValueError):
            code.decode(survivors, coded[survivors])

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_duplicate_ids_do_not_help(self, k, parity, seed):
        """k blocks with a repeated id carry < k equations: clean failure."""
        rng = np.random.default_rng(seed)
        code = ReedSolomonCode(k, k + parity)
        coded = code.encode(random_data(rng, k))
        ids = np.zeros(k, dtype=np.int64)  # the same block k times
        if k == 1:
            # Degenerate: one distinct id IS enough for k=1.
            assert code.decode(ids, coded[ids]).shape == (1, BLOCK_LEN)
            return
        with pytest.raises(ValueError):
            code.decode(ids, coded[ids])


# ------------------------------------------------------------------ LT + peeling


class TestLTPeelingProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=4, max_value=64),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_complete_decode_reproduces_the_data(self, k, seed):
        rng = np.random.default_rng(seed)
        code = ImprovedLTCode(k)
        n = int(np.ceil(1.6 * k)) + 8  # enough overhead to usually finish
        graph = code.build_graph(n, rng)
        data = random_data(rng, k)
        coded = code.encode(data, graph)
        decoder = PeelingDecoder(graph, block_len=BLOCK_LEN)
        for cid in rng.permutation(n):
            decoder.add(int(cid), coded[cid])
            if decoder.is_complete:
                break
        if decoder.is_complete:  # rateless: completion is probabilistic
            assert np.array_equal(decoder.get_data(), data)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=4, max_value=64),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_fewer_than_k_blocks_never_complete(self, k, seed):
        rng = np.random.default_rng(seed)
        code = ImprovedLTCode(k)
        graph = code.build_graph(2 * k, rng)
        data = random_data(rng, k)
        coded = code.encode(data, graph)
        decoder = PeelingDecoder(graph, block_len=BLOCK_LEN)
        for cid in rng.permutation(2 * k)[: k - 1]:
            decoder.add(int(cid), coded[cid])
        assert not decoder.is_complete
