"""The filer cache's array set index against the builtin ``hash``.

``SetAssociativeCache.insert_fresh`` places a range of aging lines with
``_indices``, which evaluates CPython's 64-bit tuple hash of
``(stream, line)`` in numpy instead of calling ``hash`` per line.  It
must give every line the set :meth:`SetAssociativeCache._index` gives
it.  A ``str`` hash is salted per process (``PYTHONHASHSEED``): the
property runs under this process's salt, and
``test_index_under_a_fixed_hash_seed`` reruns a sample under 0 and 1.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.fscache import SetAssociativeCache

LINE = 64
MASK = (1 << 64) - 1


def _cache(n_sets: int, ways: int = 4) -> SetAssociativeCache:
    return SetAssociativeCache(n_sets * ways * LINE, line_bytes=LINE, ways=ways)


def _builtin(cache, stream, lines) -> list[int]:
    return [cache._index((stream, line))[0] for line in lines]


def test_the_interpreter_hashes_in_64_bits():
    # The array index reproduces the 64-bit combine; a build with another
    # hash width would place lines differently.
    assert sys.hash_info.width == 64
    assert sys.hash_info.modulus == (1 << 61) - 1


_streams = st.one_of(
    st.just(""),
    st.just("__aging__"),
    st.text(),
    st.text(alphabet="éß漢字🙂́", min_size=1, max_size=40),
    st.text(min_size=500, max_size=2000),
)


@settings(max_examples=300, deadline=None)
@given(
    stream=_streams,
    base=st.sampled_from([0, 1 << 40]),
    offset=st.integers(-200, 5000),
    n=st.integers(0, 400),
    n_sets=st.integers(1, 5000),
)
def test_index_is_the_builtin_tuple_hash(stream, base, offset, n, n_sets):
    first = max(0, base + offset)
    lines = range(first, first + n)
    cache = _cache(n_sets)
    got = cache._indices(stream, lines)
    assert got.dtype == np.int64
    assert got.tolist() == _builtin(cache, stream, lines)


def test_a_stepped_range_and_the_top_of_the_int_domain():
    cache = _cache(509)
    top = (1 << 61) - 2  # the largest int that hashes to itself
    for lines in [range(3, 400, 7), range(top - 300, top + 1), range(top, top - 40, -3)]:
        assert cache._indices("f", lines).tolist() == _builtin(cache, "f", lines)


def _line_hashing_to_minus_one(stream) -> int:
    """The 64-bit ``line`` for which the tuple hash of ``(stream, line)``
    comes out as -1, solved backwards through the combine."""
    p1, p2, p5 = 11400714785074694791, 14029467366897019727, 2870177450012600261
    acc = (p5 + (hash(stream) & MASK) * p2) & MASK
    acc = (((acc << 31) | (acc >> 33)) * p1) & MASK
    want = (MASK - (2 ^ p5 ^ 3527539)) & MASK  # before the length is added
    want = want * pow(p1, -1, 1 << 64) & MASK
    want = ((want >> 31) | (want << 33)) & MASK  # undo the rotation
    return (want - acc) * pow(p2, -1, 1 << 64) & MASK


def test_the_minus_one_stand_in():
    # CPython never returns -1 from a hash: the tuple hash maps it to
    # 1546275796.  Find a stream whose -1 line hashes to itself.
    for i in range(200):
        stream = f"s{i}"
        line = _line_hashing_to_minus_one(stream)
        if line < (1 << 61) - 1:
            break
    else:
        pytest.fail("no stream within 200 tries")
    assert hash((stream, line)) == 1546275796
    cache = _cache(4093)
    lines = range(line - 2, line + 3)
    assert cache._indices(stream, lines).tolist() == _builtin(cache, stream, lines)


@pytest.mark.parametrize("lines", [range(-1, 3), range((1 << 61) - 3, 1 << 61)])
def test_lines_outside_the_identity_domain_are_rejected(lines):
    with pytest.raises(ValueError, match="2\\*\\*61"):
        _cache(8)._indices("f", lines)


_UNDER_SEED = """
from repro.cluster.fscache import SetAssociativeCache

cache = SetAssociativeCache(509 * 4 * 64, line_bytes=64, ways=4)
for stream in ["", "__aging__", "\\u00e9\\u6f22\\U0001f642", "x" * 1000]:
    for lines in [range(0, 3000), range((1 << 40) - 1500, (1 << 40) + 1500)]:
        want = [cache._index((stream, line))[0] for line in lines]
        assert cache._indices(stream, lines).tolist() == want, (stream, lines)
print("ok")
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_index_under_a_fixed_hash_seed(hash_seed):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _UNDER_SEED],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
