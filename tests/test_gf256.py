"""Tests for GF(256) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import gf256 as gf

elem = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


def test_exp_log_inverse_relationship():
    for a in range(1, 256):
        assert gf.EXP[gf.LOG[a]] == a


def test_exp_table_wraps():
    assert np.array_equal(gf.EXP[255:510], gf.EXP[:255])


def test_mul_identity_and_zero():
    a = np.arange(256, dtype=np.uint8)
    assert np.array_equal(gf.gf_mul(a, 1), a)
    assert np.array_equal(gf.gf_mul(a, 0), np.zeros(256, dtype=np.uint8))


@settings(max_examples=200, deadline=None)
@given(elem, elem)
def test_mul_commutative(a, b):
    assert gf.gf_mul(a, b) == gf.gf_mul(b, a)


@settings(max_examples=200, deadline=None)
@given(elem, elem, elem)
def test_mul_associative(a, b, c):
    assert gf.gf_mul(gf.gf_mul(a, b), c) == gf.gf_mul(a, gf.gf_mul(b, c))


@settings(max_examples=200, deadline=None)
@given(elem, elem, elem)
def test_distributive(a, b, c):
    left = gf.gf_mul(a, gf.gf_add(b, c))
    right = gf.gf_add(gf.gf_mul(a, b), gf.gf_mul(a, c))
    assert left == right


@settings(max_examples=100, deadline=None)
@given(nonzero)
def test_inverse(a):
    assert gf.gf_mul(a, gf.gf_inv(a)) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf.gf_inv(0)


@settings(max_examples=100, deadline=None)
@given(elem, nonzero)
def test_division_roundtrip(a, b):
    assert gf.gf_mul(gf.gf_div(a, b), b) == a


def test_pow_matches_repeated_mul():
    for a in (1, 2, 3, 5, 7, 200):
        acc = 1
        for n in range(6):
            assert gf.gf_pow(a, n) == acc
            acc = int(gf.gf_mul(acc, a))


def test_pow_zero_base():
    assert gf.gf_pow(0, 0) == 1
    assert gf.gf_pow(0, 5) == 0


def test_matmul_identity():
    rng = np.random.default_rng(0)
    A = rng.integers(0, 256, (5, 5), dtype=np.uint8)
    identity = np.eye(5, dtype=np.uint8)
    assert np.array_equal(gf.gf_matmul(A, identity), A)
    assert np.array_equal(gf.gf_matmul(identity, A), A)


def test_matmul_matches_scalar_definition():
    rng = np.random.default_rng(1)
    A = rng.integers(0, 256, (3, 4), dtype=np.uint8)
    B = rng.integers(0, 256, (4, 2), dtype=np.uint8)
    C = gf.gf_matmul(A, B)
    for i in range(3):
        for j in range(2):
            acc = 0
            for kk in range(4):
                acc ^= int(gf.gf_mul(A[i, kk], B[kk, j]))
            assert C[i, j] == acc


def test_matmul_shape_check():
    with pytest.raises(ValueError):
        gf.gf_matmul(np.zeros((2, 3), np.uint8), np.zeros((2, 3), np.uint8))


def test_mat_inv_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(5):
        while True:
            A = rng.integers(0, 256, (6, 6), dtype=np.uint8)
            try:
                inv = gf.gf_mat_inv(A)
                break
            except np.linalg.LinAlgError:
                continue
        assert np.array_equal(gf.gf_matmul(A, inv), np.eye(6, dtype=np.uint8))


def test_mat_inv_singular_raises():
    A = np.zeros((3, 3), dtype=np.uint8)
    with pytest.raises(np.linalg.LinAlgError):
        gf.gf_mat_inv(A)


def test_mat_inv_requires_square():
    with pytest.raises(ValueError):
        gf.gf_mat_inv(np.zeros((2, 3), np.uint8))


def test_cauchy_every_square_submatrix_invertible():
    C = gf.cauchy_matrix(4, 6)
    rng = np.random.default_rng(3)
    for _ in range(20):
        size = int(rng.integers(1, 5))
        rows = rng.choice(4, size=size, replace=False)
        cols = rng.choice(6, size=size, replace=False)
        sub = C[np.ix_(rows, cols)]
        gf.gf_mat_inv(sub)  # must not raise


def test_cauchy_size_limit():
    with pytest.raises(ValueError):
        gf.cauchy_matrix(200, 100)
