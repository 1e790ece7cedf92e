"""Property tests for the consistent-hash placement ring.

The three guarantees serving placement rests on, in test form:

* keys spread ~evenly across filers (bounded max/mean load with
  virtual nodes);
* adding or removing one filer remaps only ~1/n of the keys, and every
  remapped key moves to (or off) exactly that filer;
* the replica set of any key is always ``count`` *distinct* physical
  nodes, primary first.

All hashes come from ``stable_seeds`` so every assertion here is exact
and process-independent — no flaky statistical tolerances needed.  The
array-built ring is also checked, point for point and lookup for lookup,
against the original insert-and-walk ring kept in ``tests/_ring_ref.py``.
"""

from __future__ import annotations

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.ring as ring_module
import tests._ring_ref as ring_ref
from repro.cluster.metadata_distributed import DistributedMetadataServer
from repro.serve.ring import FilePlacer, HashRing

KEYS = [f"f{i}" for i in range(20_000)]


def census(ring: HashRing, keys=KEYS) -> dict:
    counts: dict = {n: 0 for n in ring.nodes}
    for k in keys:
        counts[ring.primary(k)] += 1
    return counts


# ---------------------------------------------------------------------------
# balance


def test_balanced_distribution_with_vnodes():
    ring = HashRing(range(16), vnodes=128)
    counts = census(ring)
    mean = len(KEYS) / len(ring)
    assert all(c > 0 for c in counts.values())
    assert max(counts.values()) / mean < 1.7
    assert min(counts.values()) / mean > 0.4


def test_more_vnodes_flatten_the_distribution():
    few = census(HashRing(range(16), vnodes=8))
    many = census(HashRing(range(16), vnodes=256))
    mean = len(KEYS) / 16
    assert max(many.values()) / mean < max(few.values()) / mean


# ---------------------------------------------------------------------------
# minimal remapping


def test_adding_a_node_only_steals_keys():
    ring = HashRing(range(16), vnodes=64)
    before = {k: ring.primary(k) for k in KEYS}
    ring.add_node(16)
    moved = [k for k in KEYS if ring.primary(k) != before[k]]
    # Every remapped key landed on the new node — no collateral shuffling.
    assert moved and all(ring.primary(k) == 16 for k in moved)
    # ~1/17 of keys move; allow generous slack on the vnode variance.
    assert len(moved) < 2 * len(KEYS) / 17


def test_removing_a_node_only_moves_its_keys():
    ring = HashRing(range(16), vnodes=64)
    before = {k: ring.primary(k) for k in KEYS}
    ring.remove_node(3)
    for k in KEYS:
        if before[k] != 3:
            assert ring.primary(k) == before[k]
        else:
            assert ring.primary(k) != 3


def test_add_then_remove_restores_the_ring():
    ring = HashRing(range(8), vnodes=32)
    before = {k: ring.primary(k) for k in KEYS[:2000]}
    ring.add_node(99)
    ring.remove_node(99)
    assert {k: ring.primary(k) for k in KEYS[:2000]} == before


# ---------------------------------------------------------------------------
# replica selection


def test_replicas_always_distinct():
    ring = HashRing(range(10), vnodes=64)
    for k in KEYS[:2000]:
        reps = ring.nodes_for(k, 3)
        assert len(reps) == 3
        assert len(set(reps)) == 3
        assert reps[0] == ring.primary(k)


def test_replica_count_capped_at_physical_nodes():
    ring = HashRing(range(4), vnodes=16)
    reps = ring.nodes_for("anything", 100)
    assert sorted(reps) == [0, 1, 2, 3]


def test_empty_ring_and_bad_count():
    ring = HashRing()
    assert ring.nodes_for("k", 3) == []
    assert ring.primary("k") is None
    assert HashRing(range(4)).nodes_for("k", 0) == []


# ---------------------------------------------------------------------------
# construction invariants


def test_ring_identical_regardless_of_insertion_order():
    a = HashRing([0, 1, 2, 3], vnodes=64)
    b = HashRing([3, 1, 0, 2], vnodes=64)
    assert [a.primary(k) for k in KEYS[:2000]] == [
        b.primary(k) for k in KEYS[:2000]
    ]


def test_add_remove_idempotent_and_vnodes_validated():
    ring = HashRing(range(4), vnodes=8)
    ring.add_node(2)
    ring.remove_node(77)
    assert len(ring) == 4
    with pytest.raises(ValueError):
        HashRing(vnodes=0)


# ---------------------------------------------------------------------------
# FilePlacer: ring decision, metadata record


def test_placer_records_and_serves_lookups():
    ring = HashRing(range(8), vnodes=32)
    meta = DistributedMetadataServer(n_nodes=2)
    placer = FilePlacer(ring, meta)
    [filers] = placer.place(["fileA"], 4 << 20, "robustore", replication_factor=3)
    assert filers == ring.nodes_for("fileA", 3)
    assert placer.lookup(["fileA"]) == [list(filers)]
    rec = meta.lookup("fileA")
    assert rec.scheme == "robustore" and rec.size_bytes == 4 << 20


def test_placer_empty_ring_raises():
    placer = FilePlacer(HashRing(), DistributedMetadataServer(n_nodes=1))
    with pytest.raises(ValueError):
        placer.place(["f"], 1, "raid0", replication_factor=2)


def test_placer_batch_equals_per_name_placement():
    ring = HashRing(range(8), vnodes=32)
    meta = DistributedMetadataServer(n_nodes=3, sync_replicas=1)
    placer = FilePlacer(ring, meta)
    names = [f"f{i}" for i in range(300)]
    placed = placer.place(names, 1 << 20, "raid0", replication_factor=3)
    assert placed == [ring.nodes_for(name, 3) for name in names]
    assert placer.lookup(names) == placed
    assert (meta.accesses, meta.sync_messages) == (300, 300)


def test_placer_lists_are_never_shared():
    ring = HashRing(range(4), vnodes=16)
    meta = DistributedMetadataServer(n_nodes=2)
    placer = FilePlacer(ring, meta)
    names = [f"f{i}" for i in range(200)]
    placed = placer.place(names, 1, "raid0", replication_factor=2)
    recorded = [r.extra["filers"] for r in meta.lookup_many(names)]
    returned = placed + placer.lookup(names)
    assert len({id(filers) for filers in recorded + returned}) == 3 * len(names)
    # What a caller gets back is a copy: mutating it reaches neither the
    # metadata nor the ring.
    for filers in returned:
        filers.append(-1)
    assert placer.lookup(names) == ring.nodes_for_many(names, 2)
    # Each record's list is its own, never a row of the ring's table.
    for filers in recorded:
        filers.append(-2)
    assert all(-2 not in filers for filers in ring.nodes_for_many(names, 2))


def test_placer_empty_batches():
    meta = DistributedMetadataServer(n_nodes=2)
    placer = FilePlacer(HashRing(range(4), vnodes=8), meta)
    assert placer.place([], 1, "raid0", replication_factor=2) == []
    assert placer.lookup([]) == []
    assert (meta.accesses, meta.sync_messages) == (0, 0)
    assert HashRing().nodes_for_many(["a", "b"], 2) == [[], []]
    assert HashRing(range(4)).nodes_for_many([], 2) == []


# ---------------------------------------------------------------------------
# differential: the array-built ring against the insert-and-walk oracle


@st.composite
def ring_scripts(draw):
    """A node pool with distinct ``str`` forms, an initial node set drawn
    from it, a sequence of add/remove operations and a ring size."""
    pool = draw(st.lists(
        st.one_of(st.integers(-(2**65), 2**65), st.text(max_size=4)),
        min_size=1, max_size=10, unique_by=str,
    ))
    initial = draw(st.lists(st.sampled_from(pool), max_size=len(pool)))
    ops = draw(st.lists(st.tuples(st.booleans(), st.sampled_from(pool)), max_size=8))
    return initial, ops, draw(st.integers(1, 64))


def same_layout(ring: HashRing, ref: ring_ref.HashRing) -> bool:
    return ring._points.tolist() == ref._points and ring._owners == ref._owners


@pytest.mark.parametrize("collide", [False, True], ids=["mix32", "4bit"])
@settings(max_examples=60, deadline=None)
@given(script=ring_scripts(), int_keys=st.booleans(), data=st.data())
def test_ring_matches_reference(collide, script, int_keys, data):
    initial, ops, vnodes = script
    keys = list(range(-250, 250)) if int_keys else [f"k{i}" for i in range(500)]
    with ExitStack() as stack:
        if collide:
            # Keep 4 bits of every hash: points collide all the time, so the
            # (point, str(owner)) tie-break decides most of the layout.
            mix, mix_ref = ring_module._mix32, ring_ref._mix32
            stack.enter_context(mock.patch.object(
                ring_module, "_mix32", lambda h: mix(h) & np.uint32(0xF)))
            stack.enter_context(mock.patch.object(
                ring_ref, "_mix32", lambda h: mix_ref(h) & 0xF))
        ring = HashRing(initial, vnodes=vnodes)
        ref = ring_ref.HashRing(initial, vnodes=vnodes)
        assert same_layout(ring, ref)
        for add, node in ops:
            for r in (ring, ref):
                (r.add_node if add else r.remove_node)(node)
            assert same_layout(ring, ref)
        count = data.draw(st.integers(0, len(ref) + 2), label="count")
        expected = [ref.nodes_for(k, count) for k in keys]
        assert [ring.nodes_for(k, count) for k in keys] == expected
        assert ring.nodes_for_many(keys, count) == expected
