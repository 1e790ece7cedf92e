"""Bulk cache aging against the per-line cache it replaces.

``SetAssociativeCache.insert_fresh`` installs a range of never-probed
lines in one pass per set.  The reference below is the loop it replaced,
``insert_line`` once per line, kept here as the oracle: every probe must
return the same answer, the hit/miss counters must agree, and each set
must hold the same real tags in the same LRU order with its aged slots
in the same positions.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.filer import Filer
from repro.cluster.fscache import AGED, SetAssociativeCache
from repro.net.link import Link

LINE = 64
AGING = "__aging__"


class PerLineCache(SetAssociativeCache):
    """The oracle: aging inserts one line at a time, as tuples."""

    def insert_fresh(self, stream, lines) -> None:
        for line in lines:
            self.insert_line((stream, line))


def _slots(cache, aged_stream) -> list[list]:
    """Each set's tags, LRU first, with every aged slot as ``AGED``."""
    return [
        [AGED if tag is AGED or tag[0] == aged_stream else tag for tag in s]
        for s in cache._sets
    ]


def _assert_real_tags_unique(cache) -> None:
    # The invariant test_properties.py checks on a cache that never ages:
    # real tags are unique in a set.  Aged slots repeat by design.
    for s in cache._sets:
        assert len(s) <= cache.ways
        real = [tag for tag in s if tag is not AGED]
        assert len(set(real)) == len(real)


_keys = st.tuples(st.sampled_from(["f", "g", "h"]), st.integers(0, 40))
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), _keys),
        st.tuples(st.just("insert"), _keys),
        st.tuples(st.just("contains"), _keys),
        st.tuples(st.just("age"), st.floats(0.0, 3.0)),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(
    ways=st.integers(1, 8),
    n_sets=st.integers(1, 9),
    stream=st.sampled_from([AGING, "competing", "x"]),
    steps=_steps,
)
def test_bulk_aging_matches_per_line_oracle(ways, n_sets, stream, steps):
    capacity = ways * n_sets
    bulk = SetAssociativeCache(capacity * LINE, line_bytes=LINE, ways=ways)
    ref = PerLineCache(capacity * LINE, line_bytes=LINE, ways=ways)
    assert bulk.n_sets == ref.n_sets == n_sets
    counter = 0
    for op, arg in steps:
        if op == "age":
            # 0 to 3x capacity fresh lines, numbered on from the last call.
            n = int(arg * capacity)
            lines = range(counter + 1, counter + n + 1)
            counter += n
            bulk.insert_fresh(stream, lines)
            ref.insert_fresh(stream, lines)
        elif op == "lookup":
            assert bulk.lookup_line(arg) == ref.lookup_line(arg)
        elif op == "insert":
            bulk.insert_line(arg)
            ref.insert_line(arg)
        else:
            assert bulk.contains_line(arg) == ref.contains_line(arg)
        assert (bulk.hits, bulk.misses) == (ref.hits, ref.misses)
        assert _slots(bulk, stream) == _slots(ref, stream)
        _assert_real_tags_unique(bulk)


def test_aged_slot_equals_no_key():
    # Not even the aging tags themselves: the bulk path keeps none, which
    # is why insert_fresh is only for lines nothing probes again.
    cache = SetAssociativeCache(4 * LINE, line_bytes=LINE, ways=4)
    cache.insert_fresh(AGING, range(1, 5))
    assert cache._sets == [[AGED] * 4]
    for key in [(AGING, 1), (AGING, 4), 1, "a", ("f", 0)]:
        assert not cache.contains_line(key)
        assert not cache.lookup_line(key)
    assert (cache.hits, cache.misses) == (0, 5)


def test_saturating_age_leaves_only_aged_slots():
    cache = SetAssociativeCache(8 * LINE, line_bytes=LINE, ways=4)
    for b in range(8):
        cache.insert_line(("f", b))
    cache.insert_fresh(AGING, range(1, 1000))
    assert all(s == [AGED] * 4 for s in cache._sets)
    assert not any(cache.contains_line(("f", b)) for b in range(8))


def test_empty_range_is_a_no_op():
    cache = SetAssociativeCache(8 * LINE, line_bytes=LINE, ways=4)
    cache.insert_line(("f", 0))
    before = [list(s) for s in cache._sets]
    cache.insert_fresh(AGING, range(5, 5))
    assert cache._sets == before


# ------------------------------------------------------------- Filer.age_cache


def _filer(cache):
    return Filer(0, list(range(8)), Link(rtt_s=0.001), cache)


def _warm(cache):
    for b in range(6):
        cache.insert_line(("f", b))
    return [list(s) for s in cache._sets]


def test_age_cache_without_cache_is_a_no_op():
    filer = _filer(None)
    filer.age_cache(1 << 30)
    assert filer._age_counter == 0


@pytest.mark.parametrize("nbytes", [0, -LINE, LINE - 1])
def test_age_cache_below_one_line_is_a_no_op(nbytes):
    cache = SetAssociativeCache(8 * LINE, line_bytes=LINE, ways=4)
    before = _warm(cache)
    filer = _filer(cache)
    filer.age_cache(nbytes)
    assert filer._age_counter == 0
    assert cache._sets == before


def test_age_cache_line_counter_carries_across_calls():
    ways, n_sets = 4, 5
    bulk = SetAssociativeCache(ways * n_sets * LINE, line_bytes=LINE, ways=ways)
    ref = PerLineCache(ways * n_sets * LINE, line_bytes=LINE, ways=ways)
    _warm(bulk)
    _warm(ref)
    filer = _filer(bulk)
    # 3.5 lines' worth rounds down to 3; the next call starts at line 4.
    filer.age_cache(3 * LINE + LINE // 2)
    assert filer._age_counter == 3
    filer.age_cache(7 * LINE)
    assert filer._age_counter == 10
    ref.insert_fresh(AGING, range(1, 4))
    ref.insert_fresh(AGING, range(4, 11))
    assert _slots(bulk, AGING) == _slots(ref, AGING)


# ------------------------------------------------- recorded defect (c), ROADMAP 2(a)

_HASH_SEED_PROBE = """
from repro.accesscore.routing import MB
from repro.experiments import config as C
from repro.experiments.harness import TrialPlan, run_scheme

plan = TrialPlan(
    access=C.baseline_access(data_bytes=32 * MB, n_disks=8),
    mode="raw",
    background="heterogeneous",
    fs_cache_bytes=C.FS_CACHE_BYTES,
    trials=2,
    seed=0,
    engine="closed",
)
print(repr(run_scheme(plan, "robustore")[0].latency_s))
"""


def _latency_under_hash_seed(hash_seed: str) -> float:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _HASH_SEED_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return float(out.stdout.strip().splitlines()[-1])


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "recorded defect (c): the filer cache indexes sets by the builtin "
        "hash of a str-bearing tag, so a warm-cache read depends on "
        "PYTHONHASHSEED; ROADMAP item 2(a) replaces the set-index rule"
    ),
)
def test_warm_cache_read_does_not_depend_on_hash_seed():
    assert _latency_under_hash_seed("0") == _latency_under_hash_seed("1")
