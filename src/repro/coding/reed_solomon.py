"""Systematic Reed-Solomon erasure code over GF(256).

The optimal-erasure-code baseline of the dissertation (§2.2.2, Table 5-1):
any K of the N coded blocks reconstruct the data, at quadratic-in-K
computation cost — which is exactly why the dissertation rejects it for
long code words in favour of LT codes.

Construction: the generator matrix is ``[I_K ; C]`` where ``C`` is a
``(N-K) x K`` Cauchy matrix, so every K x K submatrix of the generator is
invertible (the MDS property).
"""

from __future__ import annotations

import numpy as np

from repro.coding.gf256 import cauchy_matrix, gf_mat_inv, gf_matmul


class ReedSolomonCode:
    """Systematic (N, K) Reed-Solomon erasure code.

    Parameters
    ----------
    k:
        Number of data blocks.
    n:
        Total coded blocks (first ``k`` are verbatim data).  Requires
        ``k <= n <= 256`` for GF(256).
    """

    def __init__(self, k: int, n: int) -> None:
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if n > 256:
            raise ValueError("GF(256) Reed-Solomon supports at most 256 blocks")
        self.k = k
        self.n = n
        self.parity_matrix = cauchy_matrix(n - k, k) if n > k else np.zeros((0, k), np.uint8)

    @property
    def rate(self) -> float:
        return self.k / self.n

    @property
    def redundancy(self) -> float:
        """Degree of data redundancy D = N/K - 1 (§2.2.1)."""
        return self.n / self.k - 1.0

    def generator_row(self, coded_id: int) -> np.ndarray:
        """Row of the generator matrix producing coded block ``coded_id``."""
        if not 0 <= coded_id < self.n:
            raise IndexError(coded_id)
        if coded_id < self.k:
            row = np.zeros(self.k, dtype=np.uint8)
            row[coded_id] = 1
            return row
        return self.parity_matrix[coded_id - self.k]

    # -- data path -------------------------------------------------------
    def encode(self, data_blocks: np.ndarray) -> np.ndarray:
        """Encode K data blocks into N coded blocks (systematic)."""
        data_blocks = np.asarray(data_blocks, dtype=np.uint8)
        if data_blocks.shape[0] != self.k:
            raise ValueError(f"expected {self.k} blocks, got {data_blocks.shape[0]}")
        out = np.empty((self.n, data_blocks.shape[1]), dtype=np.uint8)
        out[: self.k] = data_blocks
        if self.n > self.k:
            out[self.k :] = gf_matmul(self.parity_matrix, data_blocks)
        return out

    def decode(self, coded_ids: np.ndarray | list[int], coded_blocks: np.ndarray) -> np.ndarray:
        """Reconstruct the K data blocks from any K coded blocks.

        Parameters
        ----------
        coded_ids:
            Indices (into 0..N-1) of the supplied blocks; must contain at
            least K distinct ids.
        coded_blocks:
            Matching payload rows.
        """
        ids = np.asarray(coded_ids, dtype=np.int64)
        coded_blocks = np.asarray(coded_blocks, dtype=np.uint8)
        ids, first = np.unique(ids, return_index=True)
        coded_blocks = coded_blocks[first]
        if ids.size < self.k:
            raise ValueError(f"need {self.k} distinct blocks, got {ids.size}")
        ids = ids[: self.k]
        coded_blocks = coded_blocks[: self.k]

        # Fast path: all systematic blocks present in 0..k-1.
        if np.array_equal(ids, np.arange(self.k)):
            return coded_blocks.copy()

        sub = np.stack([self.generator_row(int(i)) for i in ids])
        inv = gf_mat_inv(sub)
        return gf_matmul(inv, coded_blocks)
