"""GF(2^8) arithmetic, vectorised with numpy lookup tables.

The field is GF(256) with the AES/Rijndael primitive polynomial
x^8 + x^4 + x^3 + x + 1 (0x11B).  Multiplication uses a full 256x256
product table so that multiplying a scalar coefficient into a long data
vector is a single fancy-indexing operation — the hot path of Reed-Solomon
encode/decode.
"""

from __future__ import annotations

import numpy as np

PRIMITIVE_POLY = 0x11B
FIELD_SIZE = 256
GENERATOR = 3  # 3 is a primitive element for 0x11B


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by the generator (3) in GF(256)
        y = x ^ (x << 1)
        if y & 0x100:
            y ^= PRIMITIVE_POLY
        x = y & 0xFF
    exp[255:510] = exp[:255]
    # Full product table: mul[a, b] = a*b in GF(256).
    a = np.arange(256)
    la = log[a][:, None]
    lb = log[a][None, :]
    mul = exp[(la + lb) % 255].astype(np.uint8)
    mul[0, :] = 0
    mul[:, 0] = 0
    return exp, log, mul


EXP, LOG, MUL = _build_tables()


def gf_add(a, b):
    """Addition in GF(256) is XOR."""
    return np.bitwise_xor(a, b)


def gf_mul(a, b):
    """Element-wise product; either operand may be scalar or array."""
    return MUL[np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)]


def gf_inv(a):
    """Multiplicative inverse (0 has none)."""
    arr = np.asarray(a, dtype=np.uint8)
    if np.any(arr == 0):
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return EXP[255 - LOG[arr]].astype(np.uint8) if arr.ndim else np.uint8(EXP[255 - LOG[int(arr)]])


def gf_div(a, b):
    """Element-wise quotient a / b."""
    return gf_mul(a, gf_inv(b))


def gf_pow(a: int, n: int) -> int:
    """Scalar exponentiation a**n."""
    a = int(a)
    if a == 0:
        return 0 if n else 1
    return int(EXP[(int(LOG[a]) * (n % 255)) % 255])


def gf_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product over GF(256).

    ``A`` is (m, k) and ``B`` is (k, n); the result is (m, n).  Implemented
    as k rank-1 XOR accumulations with table-lookup scaling, which keeps all
    inner work in vectorised numpy.
    """
    A = np.asarray(A, dtype=np.uint8)
    B = np.asarray(B, dtype=np.uint8)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError(f"incompatible shapes {A.shape} x {B.shape}")
    m, k = A.shape
    n = B.shape[1]
    out = np.zeros((m, n), dtype=np.uint8)
    for j in range(k):
        col = A[:, j]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        # out[nz] ^= col[nz] * B[j]  (^= writes through the fancy index)
        out[nz] ^= MUL[col[nz][:, None], B[j][None, :]]
    return out


def gf_mat_inv(A: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(256) by Gauss-Jordan elimination.

    Raises
    ------
    np.linalg.LinAlgError
        If the matrix is singular.
    """
    A = np.asarray(A, dtype=np.uint8)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    aug = np.zeros((n, 2 * n), dtype=np.uint8)
    aug[:, :n] = A
    aug[np.arange(n), n + np.arange(n)] = 1
    for col in range(n):
        pivot_rows = np.nonzero(aug[col:, col])[0]
        if pivot_rows.size == 0:
            raise np.linalg.LinAlgError("singular matrix over GF(256)")
        pivot = col + int(pivot_rows[0])
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        inv_p = gf_inv(int(aug[col, col]))
        aug[col] = MUL[np.uint8(inv_p), aug[col]]
        # Eliminate the column from every other row at once.
        factors = aug[:, col].copy()
        factors[col] = 0
        rows = np.nonzero(factors)[0]
        if rows.size:
            aug[rows] ^= MUL[factors[rows][:, None], aug[col][None, :]]
    return aug[:, n:].copy()


def cauchy_matrix(rows: int, cols: int) -> np.ndarray:
    """A (rows x cols) Cauchy matrix: every square submatrix is invertible.

    Entry (i, j) = 1 / (x_i + y_j) with x, y disjoint element sets; this is
    the standard construction for MDS erasure-code generator matrices.
    """
    if rows + cols > FIELD_SIZE:
        raise ValueError("rows + cols must not exceed 256 for GF(256) Cauchy")
    x = np.arange(rows, dtype=np.uint8)
    y = np.arange(rows, rows + cols, dtype=np.uint8)
    denom = np.bitwise_xor(x[:, None], y[None, :])
    return EXP[(255 - LOG[denom]) % 255].astype(np.uint8)
