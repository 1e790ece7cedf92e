"""The column fold: ``stable_seeds`` and ``fnv32_many`` equal their scalar forms.

Ring placement and metadata partitioning hash whole columns of keys at
once; every value must equal the scalar ``stable_seed`` / ``_fnv32`` it
replaces, or placement would move.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import _fnv32, fnv32_many, stable_seed, stable_seeds

PREFIXES = [
    (),
    ("key",),
    ("vnode", 3),
    ("mixed", -2, 2.5, True, False, np.int32(7), ""),
]

INTS = [
    0, 1, -1, 2**63, 2**63 - 1, -(2**63), 2**64 + 5, 2**64 - 1, -(2**70),
    np.int64(-7), np.uint64(2**64 - 1), np.int8(3),
]

STRS = ["", "a", "f4095", "é", "naïve", "日本語のキー", "🙂🙂", "x" * 40]


@pytest.mark.parametrize("prefix", PREFIXES, ids=repr)
def test_int_column_equals_scalar_seeds(prefix):
    seeds = stable_seeds(*prefix, INTS)
    assert seeds.dtype == np.uint32
    assert seeds.tolist() == [stable_seed(*prefix, x) for x in INTS]


@pytest.mark.parametrize("prefix", PREFIXES, ids=repr)
def test_str_column_equals_scalar_seeds(prefix):
    # Mixed lengths (0 to 40 bytes) and multi-byte UTF-8 in one column.
    assert stable_seeds(*prefix, STRS).tolist() == [
        stable_seed(*prefix, x) for x in STRS
    ]


def test_range_column_and_node_prefix():
    for node in (0, 15, "filer-a", 2**64 + 1):
        assert stable_seeds("vnode", node, range(64)).tolist() == [
            stable_seed("vnode", node, i) for i in range(64)
        ]


def test_empty_column():
    seeds = stable_seeds("key", [])
    assert seeds.dtype == np.uint32 and seeds.size == 0
    assert fnv32_many([]).size == 0


@pytest.mark.parametrize("column", [[1, "a"], [True], [1, False], [1.5], [b"raw"]])
def test_column_must_be_all_ints_or_all_strs(column):
    with pytest.raises(TypeError):
        stable_seeds("key", column)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.binary(max_size=24), max_size=40),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fnv32_many_equals_fnv32(data, h):
    assert fnv32_many(data, h).tolist() == [_fnv32(d, h) for d in data]
    assert fnv32_many(data).tolist() == [_fnv32(d) for d in data]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(min_value=-(2**72), max_value=2**72), max_size=30),
        st.lists(st.text(max_size=12), max_size=30),
    ),
    st.sampled_from(PREFIXES),
)
def test_stable_seeds_equal_stable_seed(column, prefix):
    assert stable_seeds(*prefix, column).tolist() == [
        stable_seed(*prefix, x) for x in column
    ]
