"""Parallel LT coding (§7.3 future work: "design parallel coding
algorithms ... use a cluster of workstations as a coding agent").

Each coded block's XOR is independent, so the encoder shards the
coded-block range across a thread pool (numpy's ``bitwise_xor`` releases
the GIL on large operands, so threads scale on the memory-bandwidth-bound
kernel).  ``ext_parallel_coding`` measures the throughput this buys.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.coding.lt import LTCode, LTGraph
from repro.coding.xorblocks import xor_reduce


def parallel_encode(
    code: LTCode,
    data_blocks: np.ndarray,
    graph: LTGraph,
    workers: int = 4,
) -> np.ndarray:
    """Encode with the coded-block range sharded over ``workers`` threads.

    Bit-identical to :meth:`repro.coding.lt.LTCode.encode`.
    """
    data_blocks = np.asarray(data_blocks, dtype=np.uint8)
    if data_blocks.shape[0] != code.k:
        raise ValueError(f"expected {code.k} original blocks")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n = graph.n
    out = np.empty((n, data_blocks.shape[1]), dtype=np.uint8)

    def encode_range(lo: int, hi: int) -> None:
        for j in range(lo, hi):
            out[j] = xor_reduce(data_blocks, graph.neighbors[j])

    if workers == 1 or n < 2 * workers:
        encode_range(0, n)
        return out
    bounds = np.linspace(0, n, workers + 1).astype(int)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(encode_range, int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        for f in futures:
            f.result()  # propagate exceptions
    return out


def encode_throughput(
    code: LTCode,
    graph: LTGraph,
    block_len: int,
    workers: int,
    rng: np.random.Generator,
) -> float:
    """Measured encode throughput (bytes of source data per second)."""
    import time

    data = rng.integers(0, 256, size=(code.k, block_len), dtype=np.uint8)
    t0 = time.perf_counter()
    parallel_encode(code, data, graph, workers=workers)
    return code.k * block_len / (time.perf_counter() - t0)
