"""Property-based tests (hypothesis) on cross-module invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accesscore.trackers import PARITY_BASE
from repro.coding.lt import ImprovedLTCode
from repro.coding.peeling import PeelingDecoder, blocks_needed
from repro.core import layout as L
from repro.core.policy.placement import ParityStripePlacement
from repro.disk.mechanics import DiskMechanics
from repro.disk.service import BackgroundLoad, BlockService
from repro.disk.workload import BLOCKING_FACTORS, InDiskLayout

MB = 1 << 20


# ------------------------------------------------------------------ layouts


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=32),
)
def test_striped_partitions_blocks(k, h):
    """RAID-0's stripe (rotated replication at D = 0) deals blocks evenly."""
    p = L.rotated_replicas_fractional(k, 0.0, h)
    flat = sorted(b for disk in p for b in disk)
    assert flat == list(range(k))
    counts = [len(disk) for disk in p]
    assert max(counts) - min(counts) <= 1


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=16),
)
def test_rotated_replicas_properties(k, r, h):
    p = L.rotated_replicas(k, r, h)
    flat = sorted(b for disk in p for b in disk)
    assert flat == list(range(r * k))
    # Each original block has copies on min(r, h) distinct disks.
    owner: dict[int, set] = {}
    for d, blocks in enumerate(p):
        for b in blocks:
            owner.setdefault(b % k, set()).add(d)
    expected = min(r, h)
    assert all(len(s) == expected for s in owner.values())


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=64),
    st.floats(min_value=0.0, max_value=4.0),
    st.integers(min_value=1, max_value=16),
)
def test_fractional_replication_total(k, d, h):
    p = L.rotated_replicas_fractional(k, d, h)
    total = sum(len(disk) for disk in p)
    expect = (int(d) + 1) * k + int(round((d - int(d)) * k))
    assert total == expect
    ids = [b for disk in p for b in disk]
    assert len(set(ids)) == len(ids)  # globally unique ids


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=2, max_value=64),
)
def test_parity_stripes_keep_parity_off_their_data_disks(k, h):
    """One failed disk never costs a RAID-5 stripe a data block and its parity."""
    placement, stripes = ParityStripePlacement.layout(k, h)
    ids = [b for disk in placement for b in disk]
    assert sorted(b for b in ids if b < PARITY_BASE) == list(range(k))
    for s, stripe in enumerate(stripes):
        parity_disk = stripe["parity_disk"]
        data = {b for b, _ in stripe["data"]}
        assert all(b in placement[d] for b, d in stripe["data"])
        assert data.isdisjoint(placement[parity_disk])
        assert ids.count(PARITY_BASE + s) == 1
        assert PARITY_BASE + s in placement[parity_disk]
    assert sum(b >= PARITY_BASE for b in ids) == len(stripes)


# ------------------------------------------------------------------ service model


layout_strategy = st.builds(
    InDiskLayout,
    blocking_factor=st.sampled_from(BLOCKING_FACTORS),
    p_sequential=st.sampled_from([0.0, 0.5, 1.0]),
)


@settings(max_examples=25, deadline=None)
@given(
    layout_strategy,
    st.integers(min_value=1, max_value=32),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_block_service_positive_and_reproducible(layout, n_blocks, seed):
    mech = DiskMechanics()
    t1 = BlockService(mech, layout, 870, np.random.default_rng(seed)).block_service_times(
        n_blocks, MB
    )
    t2 = BlockService(mech, layout, 870, np.random.default_rng(seed)).block_service_times(
        n_blocks, MB
    )
    assert np.all(t1 > 0)
    assert np.array_equal(t1, t2)


@settings(max_examples=25, deadline=None)
@given(
    layout_strategy,
    st.floats(min_value=0.006, max_value=0.5),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_completions_monotone_and_delayed_by_background(layout, interval, seed):
    mech = DiskMechanics()
    rng = np.random.default_rng(seed)
    services = BlockService(mech, layout, 870, rng).block_service_times(8, MB)

    quiet = BlockService(mech, layout, 870, np.random.default_rng(seed + 1))
    c0 = quiet.completions(services, 1.0)
    loaded = BlockService(
        mech, layout, 870, np.random.default_rng(seed + 1),
        background=BackgroundLoad(interval_s=interval),
    )
    c1 = loaded.completions(services, 1.0)
    # Completions are strictly increasing and never earlier than quiet.
    assert np.all(np.diff(c0) > 0)
    assert np.all(np.diff(c1) > 0)
    assert np.all(c1 >= c0 - 1e-9)
    assert np.all(np.isfinite(c1))


# ------------------------------------------------------------------ decoding


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=8, max_value=48),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_blocks_needed_order_invariance_bounds(k, seed):
    """Any arrival order needs between k and n blocks; the full set always
    decodes (writer guarantee)."""
    rng = np.random.default_rng(seed)
    code = ImprovedLTCode(k, c=0.5, delta=0.5)
    graph = code.build_graph(3 * k, rng)
    for _ in range(3):
        order = rng.permutation(graph.n)
        needed = blocks_needed(graph, order)
        assert k <= needed <= graph.n


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=8, max_value=32),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_decoder_progress_monotone(k, seed):
    rng = np.random.default_rng(seed)
    code = ImprovedLTCode(k, c=0.5, delta=0.5)
    graph = code.build_graph(4 * k, rng)
    dec = PeelingDecoder(graph)
    prev = 0
    for cid in rng.permutation(graph.n):
        dec.add(int(cid))
        assert dec.decoded_count >= prev
        prev = dec.decoded_count
        if dec.is_complete:
            break
    assert dec.is_complete


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=4, max_value=24), st.integers(min_value=0, max_value=2**31 - 1))
def test_low_redundancy_repair_guarantee(k, seed):
    """Even n == k graphs decode after the constructive repair pass."""
    rng = np.random.default_rng(seed)
    code = ImprovedLTCode(k, c=1.0, delta=0.5)
    graph = code.build_graph(k, rng)
    assert blocks_needed(graph, list(range(k))) == k


# ------------------------------------------------------------------ cluster


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=60),
)
def test_fscache_lru_never_exceeds_capacity(ways, keys):
    from repro.cluster.fscache import SetAssociativeCache

    cache = SetAssociativeCache(
        capacity_bytes=ways * 4 * 64, line_bytes=64, ways=ways
    )
    for key in keys:
        cache.insert_line(key)
        cache.lookup_line(key % 7)
    for s in cache._sets:
        assert len(s) <= ways
        # Real tags are unique in a set; this cache never ages, so every
        # tag is real.
        assert len(set(s)) == len(s)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=40))
def test_fair_queue_alternates_when_both_classes_pending(flags):
    from dataclasses import dataclass

    from repro.disk.scheduler import FairShareQueue

    @dataclass
    class Req:
        cylinder: int
        is_background: bool

    q = FairShareQueue()
    for i, bg in enumerate(flags):
        q.push(Req(i, bg))
    served = []
    while q:
        served.append(q.pop().is_background)
    # Conservation: everything served exactly once.
    assert len(served) == len(flags)
    assert sum(served) == sum(flags)
    # No class is served three times in a row while the other has pending
    # work: check via suffix counts.
    remaining = {True: sum(flags), False: len(flags) - sum(flags)}
    streak_class, streak = None, 0
    for bg in served:
        remaining[bg] -= 1
        if bg == streak_class:
            streak += 1
        else:
            streak_class, streak = bg, 1
        other = remaining[not bg]
        if other > 0:
            assert streak <= 2
