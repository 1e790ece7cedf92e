"""Batched-RNG equivalence: batch draws consume streams like scalar draws.

The hot-path vectorisation (``disk/mechanics.py``, ``disk/service.py``,
``cluster/server.py``) replaced per-request scalar draws with batched
ones.  That is only bit-identity-preserving because of a set of exact
PCG64 stream equivalences, each pinned here as *values and generator
state, element-for-element* — if a numpy upgrade ever changes one of
them, this file fails before any golden does, and names the primitive.

Also pins :meth:`RngHub.fresh_batch` — one access's per-disk streams
derived in one vectorised pass — against per-key :meth:`RngHub.fresh`
and ``SeedSequence`` itself, and the SIM011 stream registry entries the
refactor added.
"""

import numpy as np
import pytest

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.disk.mechanics import DiskMechanics
from repro.disk.service import BlockService
from repro.disk.workload import InDiskLayout
from repro.sim.rng import STREAMS, RngHub, _fold, _pcg64_seeds, _PresetSeed


def _state(rng: np.random.Generator):
    return rng.bit_generator.state["state"]["state"]


def _pair(seed: int = 0):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _assert_lockstep(a: np.random.Generator, b: np.random.Generator):
    """Same stream position now, and still producing the same draws."""
    assert _state(a) == _state(b)
    assert a.random() == b.random()


class TestPrimitiveEquivalences:
    """The numpy-level identities every batched call site rests on."""

    def test_scalar_random_equals_size_one(self):
        a, b = _pair(3)
        assert a.random() == b.random(1)[0]
        _assert_lockstep(a, b)

    def test_scalar_integers_equals_size_one(self):
        a, b = _pair(3)
        assert a.integers(1, 2001) == b.integers(1, 2001, size=1)[0]
        _assert_lockstep(a, b)

    def test_batch_random_equals_scalar_sequence(self):
        a, b = _pair(5)
        assert a.random(64).tolist() == [b.random() for _ in range(64)]
        _assert_lockstep(a, b)

    def test_batch_integers_equals_scalar_sequence(self):
        a, b = _pair(4)
        got = a.integers(1, 2001, size=64)
        ref = [int(b.integers(1, 2001)) for _ in range(64)]
        assert got.tolist() == ref
        _assert_lockstep(a, b)

    def test_batch_binomial_equals_scalar_sequence(self):
        a, b = _pair(8)
        got = a.binomial(16, 0.3, size=32)
        ref = [int(b.binomial(16, 0.3)) for _ in range(32)]
        assert got.tolist() == ref
        _assert_lockstep(a, b)

    def test_choice_equals_indexed_integers(self):
        # draw_layout replaced rng.choice(options) with options[integers].
        arr = np.arange(20, 60)
        a, b = _pair(6)
        for _ in range(16):
            assert a.choice(arr) == arr[b.integers(0, arr.size)]
        _assert_lockstep(a, b)

    def test_tiled_bounds_equal_interleaved_scalars(self):
        # redraw_disk_states draws each disk's (bf, seq, zone) row in one
        # broadcast call: integers(0, tile(pattern, n)) must reject
        # per-element in order, i.e. exactly like the scalar interleave.
        pattern = np.array([8, 2, 5])
        a, b = _pair(7)
        rows = a.integers(0, np.tile(pattern, 16)).reshape(16, 3)
        ref = np.array([[int(b.integers(0, p)) for p in pattern] for _ in range(16)])
        assert np.array_equal(rows, ref)
        _assert_lockstep(a, b)


class TestMechanicsSampling:
    """The drive samplers: batch and n==1 scalar fast path vs reference."""

    def _ref_seek(self, rng, n, spec):
        import math

        out = []
        for _ in range(n):
            d = float(rng.integers(1, spec.locality_span_cylinders + 1))
            out.append(
                spec.seek_base_s + spec.seek_sqrt_s * math.sqrt(d) + spec.seek_linear_s * d
            )
        return out

    @pytest.mark.parametrize("n", [1, 2, 17, 256])
    def test_sample_local_seek(self, n):
        mech = DiskMechanics()
        a, b = _pair(10 + n)
        got = mech.sample_local_seek(a, n)
        assert got.tolist() == self._ref_seek(b, n, mech.spec)
        _assert_lockstep(a, b)

    @pytest.mark.parametrize("n", [1, 2, 17, 256])
    def test_sample_rotational_latency(self, n):
        mech = DiskMechanics()
        a, b = _pair(20 + n)
        got = mech.sample_rotational_latency(a, n)
        ref = [rng_val * mech.spec.rotation_period_s for rng_val in (b.random() for _ in range(n))]
        assert got.tolist() == ref
        _assert_lockstep(a, b)

    def test_seek_table_equals_the_expression_at_every_distance(self):
        # The array pass looks seeks up instead of evaluating the curve
        # per draw: the table must hold the scalar and the array
        # expression's exact values for every distance a draw can take.
        import math

        mech = DiskMechanics()
        s = mech.spec
        d = np.arange(1, s.locality_span_cylinders + 1)
        t = np.sqrt(d)
        t *= s.seek_sqrt_s
        t += s.seek_base_s
        t += s.seek_linear_s * d
        assert mech.seek_table.size == s.locality_span_cylinders + 1
        assert mech.seek_table[1:].tolist() == t.tolist()
        assert mech.seek_table[1:].tolist() == [
            s.seek_base_s + s.seek_sqrt_s * math.sqrt(float(v)) + s.seek_linear_s * float(v)
            for v in d.tolist()
        ]

    def test_seek_values_match_seek_time_curve(self):
        # The inlined expression must equal the public curve (d >= 1).
        mech = DiskMechanics()
        d = np.arange(1, 50, dtype=np.float64)
        curve = mech.seek_time(d)
        a = np.random.default_rng(0)
        draws = mech.sample_local_seek(a, 2000)
        assert draws.min() >= curve.min()


class TestBlockServiceStream:
    """block_service_times: one named stream, consumed like scalar draws."""

    def _reference(self, rng, n_blocks, layout, mech, spt, block_bytes):
        """Transparent re-derivation with the same macro draw order:
        per-block binomials, then all seeks, then all rotations."""
        from repro.disk.geometry import SECTOR_BYTES

        sectors = max(1, block_bytes // SECTOR_BYTES)
        n_req = -(-sectors // layout.blocking_factor)
        n_pos = [int(rng.binomial(n_req, 1.0 - layout.p_sequential)) for _ in range(n_blocks)]
        n_pos[0] += 1
        total = sum(n_pos)
        seeks = [float(mech.sample_local_seek(rng, 1)[0]) for _ in range(total)]
        rots = [float(mech.sample_rotational_latency(rng, 1)[0]) for _ in range(total)]
        xfer = float(mech.transfer_time(sectors, spt))
        out, pos = [], 0
        for blk in range(n_blocks):
            acc = 0.0
            for _ in range(n_pos[blk]):
                acc += seeks[pos] + rots[pos]
                pos += 1
            out.append(acc + n_req * mech.spec.controller_overhead_s + xfer)
        return out

    @pytest.mark.parametrize("p_seq", [0.0, 0.5, 1.0])
    def test_matches_scalar_reference(self, p_seq):
        mech = DiskMechanics()
        layout = InDiskLayout(64, p_seq)
        a, b = _pair(31)
        svc = BlockService(mech, layout, spt=870, rng=a)
        got = svc.block_service_times(24, 1 << 20)
        ref = self._reference(b, 24, layout, mech, 870, 1 << 20)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)
        _assert_lockstep(a, b)

    def test_bit_identical_per_seed(self):
        mech = DiskMechanics()
        for seed in range(3):
            runs = [
                BlockService(
                    mech, InDiskLayout(256, 0.5), 870, np.random.default_rng(seed)
                ).block_service_times(16, 1 << 20)
                for _ in range(2)
            ]
            assert np.array_equal(runs[0], runs[1])


class TestArrayPassSums:
    """The array pass's per-block and per-queue sums stay sequential.

    ``BlockService`` sums every disk's positioning draws with one
    ``bincount`` and every disk's queue with one ``cumsum(axis=1)`` over a
    zero-padded grid; both must add in the one-disk order.
    """

    @staticmethod
    def _ragged(seed):
        rng = np.random.default_rng(seed)
        n_pos = rng.integers(0, 9, size=int(rng.integers(1, 40)))
        # Magnitudes spread over many binades, so any regrouping shows.
        weights = rng.random(int(n_pos.sum())) * 10.0 ** rng.integers(-6, 3, int(n_pos.sum()))
        return n_pos, weights

    def test_bincount_sums_each_block_in_draw_order(self):
        for seed in range(200):
            n_pos, weights = self._ragged(seed)
            owner = np.repeat(np.arange(n_pos.size), n_pos)
            got = np.bincount(owner, weights=weights, minlength=n_pos.size)
            want, at = [], 0
            for k in n_pos.tolist():
                acc = 0.0
                for w in weights[at : at + k].tolist():
                    acc += w
                want.append(acc)
                at += k
            assert got.tolist() == want, seed

    def test_padded_grid_cumsum_equals_each_row_cumsum(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            rows = [
                rng.random(int(n)) * 10.0 ** rng.integers(-4, 2)
                for n in rng.integers(0, 12, size=int(rng.integers(1, 9)))
            ]
            starts = rng.random(len(rows)) * 5
            counts = np.array([r.size for r in rows])
            real = np.arange(counts.max(initial=0)) < counts[:, None]
            grid = np.zeros(real.shape)
            grid[real] = np.concatenate(rows)
            grid.cumsum(axis=1, out=grid)
            grid += starts[:, None]
            want = [r.cumsum() + t for r, t in zip(rows, starts)]
            assert grid[real].tolist() == np.concatenate(want).tolist(), seed


#: Root seeds for the batched-derivation pins; 2**32 + 5 has a two-word
#: entropy, so the prefix folds one word more than the others.
BATCH_SEEDS = (0, 7, 2**31, 2**32 + 5)

#: Every disk-keyed stream family, with a representative key prefix.
BATCH_FAMILIES = {
    "svc": ("svc", "rraid-a", 3, "read"),
    "bgphase": ("bgphase", "robustore", 1, "write"),
    "refsvc": ("refsvc", "raid0", 2),
}


class TestBatchedDerivation:
    """fresh_batch == [fresh(*prefix, i) for i in ids], bit for bit."""

    @staticmethod
    def _assert_same(batch, ref):
        assert len(batch) == len(ref)
        for a, b in zip(batch, ref):
            assert a is not b
            assert a.bit_generator.state == b.bit_generator.state
            assert a.random(4).tolist() == b.random(4).tolist()
            assert a.integers(0, 2**40, size=3).tolist() == b.integers(0, 2**40, size=3).tolist()

    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    @pytest.mark.parametrize("family", sorted(BATCH_FAMILIES))
    def test_equals_per_key_fresh(self, seed, family):
        hub = RngHub(seed)
        prefix = BATCH_FAMILIES[family]
        ids = [0, 1, 5, 63, 127]
        ref = [hub.fresh(*prefix, d) for d in ids]
        self._assert_same(hub.fresh_batch(*prefix, ids), ref)

    def test_empty_ids(self):
        assert RngHub(3).fresh_batch(*BATCH_FAMILIES["svc"], []) == []
        assert RngHub(3).fresh_batch(*BATCH_FAMILIES["svc"], np.empty(0, dtype=np.int64)) == []

    def test_duplicate_ids_get_independent_generators(self):
        hub = RngHub(7)
        a, b, c = hub.fresh_batch(*BATCH_FAMILIES["svc"], [4, 4, 9])
        assert a is not b
        ref = hub.fresh(*BATCH_FAMILIES["svc"], 4)
        assert a.random() == ref.random()  # drawing from a leaves b untouched
        assert b.bit_generator.state == hub.fresh(*BATCH_FAMILIES["svc"], 4).bit_generator.state
        assert c.bit_generator.state == hub.fresh(*BATCH_FAMILIES["svc"], 9).bit_generator.state

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint32, np.uint64])
    def test_numpy_integer_ids(self, dtype):
        hub = RngHub(2**32 + 5)
        ids = np.array([0, 3, 17], dtype=dtype)
        for form in (ids, list(ids)):  # an array, and a list of numpy scalars
            ref = [hub.fresh(*BATCH_FAMILIES["refsvc"], int(d)) for d in ids]
            self._assert_same(hub.fresh_batch(*BATCH_FAMILIES["refsvc"], form), ref)

    def test_ids_beyond_32_bits_are_masked_like_fresh(self):
        hub = RngHub(0)
        prefix = BATCH_FAMILIES["bgphase"]
        ids = [2**32 + 3, 2**40, 2**64 + 1, -1]
        ref = [hub.fresh(*prefix, d) for d in ids]
        self._assert_same(hub.fresh_batch(*prefix, ids), ref)
        masked = [d & 0xFFFFFFFF for d in ids]
        self._assert_same(
            hub.fresh_batch(*prefix, ids), [hub.fresh(*prefix, d) for d in masked]
        )

    def test_prefix_too_short_to_fill_the_pool_raises(self):
        # seed + "disk" is two entropy words: the ids would land inside
        # SeedSequence's initial pool fill, which the batch does not replay.
        with pytest.raises(ValueError, match="entropy words"):
            RngHub(0).fresh_batch("disk", [1, 2])

    def test_hub_streams_are_untouched(self):
        hub = RngHub(11)
        before = hub.stream("disk", 1).bit_generator.state
        hub.fresh_batch(*BATCH_FAMILIES["svc"], [1, 2, 3])
        assert hub.stream("disk", 1).bit_generator.state == before


class TestSeedSequencePrimitives:
    """The hash-mix replay against numpy's SeedSequence, primitive by
    primitive: a numpy change to either path fails here first."""

    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    @pytest.mark.parametrize("n_parts", [3, 4, 5, 8])
    def test_fold_equals_seed_sequence_pool(self, seed, n_parts):
        words = RngHub(seed)._words(("x",) + tuple(range(1, n_parts)))
        pool, _ = _fold(words)
        assert pool == np.random.SeedSequence(words).pool.tolist()

    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    def test_seeds_equal_generate_state(self, seed):
        words = RngHub(seed)._words(BATCH_FAMILIES["svc"])
        ids = [0, 1, 2**31, 2**32 - 1]
        seeds = _pcg64_seeds(*_fold(words), np.array(ids, dtype=np.uint32))
        assert seeds.dtype == np.uint64 and seeds.shape == (len(ids), 4)
        for row, d in zip(seeds, ids):
            expect = np.random.SeedSequence(words + [d]).generate_state(4, np.uint64)
            assert row.tolist() == expect.tolist()

    def test_pcg64_from_preset_seed_equals_pcg64_from_seed_sequence(self):
        words = [5, 1, 2166136261, 99, 3, 42]
        state = np.random.SeedSequence(words).generate_state(4, np.uint64)
        preset = np.random.PCG64(_PresetSeed(state))
        direct = np.random.PCG64(np.random.SeedSequence(words))
        assert preset.state == direct.state
        assert preset.random_raw(8).tolist() == direct.random_raw(8).tolist()

    def test_preset_seed_serves_only_pcg64_seeding(self):
        preset = _PresetSeed(np.zeros(4, dtype=np.uint64))
        with pytest.raises(ValueError):
            preset.generate_state(8)


class TestServiceFactories:
    """The scheme's per-access factories hand out batch-derived streams."""

    def _scheme(self, background=None):
        from repro.cluster.server import Cluster
        from repro.core.base import SchemeBase

        cluster = Cluster(n_disks=8, disks_per_filer=4)
        cluster.redraw_disk_states(
            np.random.default_rng(0), background_intervals=background or {}
        )
        hub = RngHub(5)
        return SchemeBase(
            cluster,
            AccessConfig(data_bytes=8 * MB, block_bytes=MB, n_disks=4),
            hub=hub,
        ), hub

    def test_service_factory_equals_fresh(self):
        scheme, hub = self._scheme()
        rng_for = scheme.service_rng_factory(2, "read", [6, 1, 3])
        for d in (1, 3, 6):
            expect = hub.fresh("svc", "base", 2, "read", d)
            assert rng_for(d).bit_generator.state == expect.bit_generator.state

    def test_reference_factory_equals_fresh(self):
        scheme, hub = self._scheme()
        rng_for = scheme.reference_rng_factory(4, np.array([2, 7]))
        for d in (7, 2):
            expect = hub.fresh("refsvc", "base", 4, d)
            assert rng_for(d).bit_generator.state == expect.bit_generator.state

    def test_factories_hand_out_only_the_batch_once(self):
        """No per-disk fallback: a disk outside the batch, or one asked for
        twice, is an error rather than a second derivation path."""
        scheme, _ = self._scheme(background={1: 0.006})
        rng_for = scheme.service_rng_factory(2, "read", [6, 1, 3])
        rng_for(6)
        for d in (6, 0):  # 6 twice, 0 outside the batch
            with pytest.raises(KeyError):
                rng_for(d)
        rng_for.phase_rng_for(1)
        with pytest.raises(KeyError):
            rng_for.phase_rng_for(3)  # no background: not in the bgphase batch
        ref_for = scheme.reference_rng_factory(4, [2, 7])
        with pytest.raises(KeyError):
            ref_for(5)

    def test_empty_access_derives_nothing(self, monkeypatch):
        scheme, hub = self._scheme()
        monkeypatch.setattr(hub, "fresh_batch", lambda *key: pytest.fail(key[0]))
        scheme.service_rng_factory(0, "read", [])
        scheme.reference_rng_factory(0, np.empty(0, dtype=np.int64))

    def test_one_batch_per_family_and_bgphase_only_for_loaded_disks(self, monkeypatch):
        scheme, hub = self._scheme(background={1: 0.006, 6: 0.006})
        calls = []
        batch = hub.fresh_batch

        def spy(*key):
            calls.append((key[0], list(key[-1])))
            return batch(*key)

        monkeypatch.setattr(hub, "fresh_batch", spy)
        rng_for = scheme.service_rng_factory(0, "read", [0, 1, 2, 6])
        assert calls == [("svc", [0, 1, 2, 6]), ("bgphase", [1, 6])]
        # Cluster.block_service asks for a phase stream exactly where the
        # bgphase batch has one (a miss would raise KeyError).
        for d in (0, 1, 2, 6):
            scheme.cluster.block_service(d, rng_for(d), phase_rng_for=rng_for.phase_rng_for)
        assert len(calls) == 2

    def test_no_bgphase_derivation_without_background(self, monkeypatch):
        scheme, hub = self._scheme()
        calls = []
        batch = hub.fresh_batch
        monkeypatch.setattr(hub, "fresh_batch", lambda *key: calls.append(key[0]) or batch(*key))
        rng_for = scheme.service_rng_factory(0, "write", range(8))
        for d in range(8):
            scheme.cluster.block_service(d, rng_for(d), phase_rng_for=rng_for.phase_rng_for)
        assert calls == ["svc"]


class TestStreamRegistry:
    """SIM011 stream-discipline entries for the refactor's streams."""

    def test_bgphase_registered(self):
        # (name, scheme, trial, phase, disk_id) — arity 5, core.base.
        assert STREAMS["bgphase"] == 5

    def test_registry_shape(self):
        for name, arity in STREAMS.items():
            assert isinstance(name, str) and name
            if isinstance(arity, tuple):
                assert all(isinstance(a, int) and a >= 1 for a in arity)
            else:
                assert isinstance(arity, int) and arity >= 1

    def test_bgphase_stream_is_stable_and_distinct(self):
        draws = {
            RngHub(7).fresh("bgphase", "raid0", 0, "read", d).random() for d in range(8)
        }
        assert len(draws) == 8  # per-disk streams are distinct
        again = RngHub(7).fresh("bgphase", "raid0", 0, "read", 3).random()
        assert again == RngHub(7).fresh("bgphase", "raid0", 0, "read", 3).random()
        # and independent of the service stream with the same key tail
        svc = RngHub(7).fresh("svc", "raid0", 0, "read", 3).random()
        assert again != svc
