"""Fast XOR kernels on data blocks.

The dissertation's LT implementation gets its throughput from careful memory
XOR (long operands, register blocking, cache striping — §5.2.3 item 4).  In
Python the equivalent idiom is numpy: blocks are ``uint8`` arrays XORed
through ``uint64`` views so each vector op moves 8 bytes per lane, and large
buffers are processed in cache-sized stripes.
"""

from __future__ import annotations

import numpy as np

#: Stripe length (bytes) for cache-friendly XOR of very large buffers.
STRIPE_BYTES = 1 << 20


def as_u64(block: np.ndarray) -> np.ndarray:
    """View a uint8 block whose size is a multiple of 8 as uint64."""
    if block.dtype != np.uint8:
        raise TypeError("blocks must be uint8 arrays")
    if block.size % 8:
        raise ValueError("block size must be a multiple of 8 bytes")
    return block.view(np.uint64)


def xor_into(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst ^= src`` in place, vectorised over uint64 lanes.

    Both blocks must be uint8, equal length, length divisible by 8.
    """
    if dst.shape != src.shape:
        raise ValueError(f"shape mismatch: {dst.shape} vs {src.shape}")
    d64, s64 = as_u64(dst), as_u64(src)
    n = d64.size
    if n * 8 <= STRIPE_BYTES:
        np.bitwise_xor(d64, s64, out=d64)
        return
    step = STRIPE_BYTES // 8
    for start in range(0, n, step):
        stop = start + step
        np.bitwise_xor(d64[start:stop], s64[start:stop], out=d64[start:stop])


def xor_reduce(blocks: np.ndarray, indices: np.ndarray | list[int]) -> np.ndarray:
    """Return the XOR of ``blocks[i]`` for ``i`` in ``indices``.

    ``blocks`` is a 2-D uint8 array (one row per block).  An empty index list
    yields a zero block.
    """
    if blocks.ndim != 2:
        raise ValueError("blocks must be a 2-D (n_blocks, block_len) array")
    idx = np.asarray(indices, dtype=np.intp)
    out = np.zeros(blocks.shape[1], dtype=np.uint8)
    if idx.size == 0:
        return out
    rows = blocks[idx].view(np.uint64)
    np.bitwise_xor.reduce(rows, axis=0, out=out.view(np.uint64))
    return out


def random_blocks(
    rng: np.random.Generator, n_blocks: int, block_len: int
) -> np.ndarray:
    """Generate ``n_blocks`` random uint8 data blocks of ``block_len`` bytes."""
    if block_len % 8:
        raise ValueError("block_len must be a multiple of 8")
    return rng.integers(0, 256, size=(n_blocks, block_len), dtype=np.uint8)


def split_into_blocks(data: bytes | np.ndarray, block_len: int) -> np.ndarray:
    """Split a byte string into fixed-size blocks, zero-padding the tail.

    Returns a 2-D uint8 array of shape ``(ceil(len/block_len), block_len)``.
    """
    if block_len <= 0 or block_len % 8:
        raise ValueError("block_len must be a positive multiple of 8")
    buf = np.frombuffer(bytes(data), dtype=np.uint8) if not isinstance(data, np.ndarray) else data.astype(np.uint8, copy=False).ravel()
    n_blocks = max(1, -(-buf.size // block_len))
    out = np.zeros((n_blocks, block_len), dtype=np.uint8)
    out.ravel()[: buf.size] = buf
    return out


def join_blocks(blocks: np.ndarray, total_len: int | None = None) -> bytes:
    """Inverse of :func:`split_into_blocks` (optionally trimming padding)."""
    flat = np.ascontiguousarray(blocks).ravel()
    if total_len is not None:
        flat = flat[:total_len]
    return flat.tobytes()
