"""Batched arrival consumption must equal the scalar observe loop.

The access engine's hot path feeds whole per-disk arrival batches to
``tracker.consume_arrivals`` (see :mod:`repro.accesscore.timeline` and
:mod:`repro.core.policy.dispatch`); the seed fed arrivals one at a time
through ``observe``.  This suite proves the two are equivalent for every
tracker that implements the batch contract — same ``(t_fill, consumed)``
return, same internal state afterwards — and documents why
:class:`~repro.accesscore.trackers.StripeTracker` deliberately does not
(its ``observe`` records per-arrival fill timestamps).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accesscore.trackers import CoverageTracker, DecoderTracker, StripeTracker
from repro.coding.lt import ImprovedLTCode
from repro.coding.peeling import PeelingDecoder


def scalar_consume(tracker, times: np.ndarray, ids: np.ndarray) -> tuple[float, int]:
    """The seed's consumption loop, verbatim: observe until complete."""
    for consumed, (t, bid) in enumerate(zip(times.tolist(), ids.tolist()), start=1):
        tracker.observe(float(t), int(bid))
        if tracker.complete:
            return float(t), consumed
    return float("inf"), int(ids.size)


def _times(n: int, with_inf: bool = False) -> np.ndarray:
    t = np.linspace(0.1, 0.1 * max(n, 1), n)
    if with_inf and n:
        t[-1] = np.inf  # a block a failed disk never delivers
    return t


def _assert_same_simple_state(a, b):
    assert a._count == b._count
    assert np.array_equal(a._have, b._have)
    assert a.complete == b.complete


def _check_simple(make_tracker, ids, with_inf=False, prefix=0):
    """Differential check for the ``_have``/``_count`` trackers.

    ``prefix`` arrivals are fed scalar to *both* first, so the batch call
    starts from a partially-consumed tracker (the multi-round dispatch
    case), not only from a fresh one.
    """
    ids = np.asarray(ids, dtype=np.int64)
    times = _times(ids.size, with_inf)
    ref, new = make_tracker(), make_tracker()
    for t, bid in zip(times[:prefix], ids[:prefix]):
        ref.observe(float(t), int(bid))
        new.observe(float(t), int(bid))
    got_ref = scalar_consume(ref, times[prefix:], ids[prefix:])
    got_new = new.consume_arrivals(times[prefix:], ids[prefix:])
    assert got_new == got_ref
    _assert_same_simple_state(new, ref)


class TestAllBlocksTracker:
    """RAID-0's all-blocks rule: coverage over ids below k."""

    def test_completes_mid_batch(self):
        _check_simple(lambda: CoverageTracker(4), [0, 1, 1, 2, 3, 0, 2])

    def test_never_completes(self):
        _check_simple(lambda: CoverageTracker(5), [0, 1, 1, 0, 2])

    def test_empty_batch(self):
        _check_simple(lambda: CoverageTracker(3), [])

    def test_partial_then_batch(self):
        _check_simple(lambda: CoverageTracker(4), [3, 3, 0, 1, 2], prefix=2)

    def test_completing_arrival_at_infinite_time(self):
        """A failed-disk (t=inf) arrival can still complete the tracker.

        Completion must be discriminated by ``tracker.complete``, never by
        ``isfinite(t_fill)`` — this pins the contract the access engine's
        batch fast path relies on.
        """
        tracker = CoverageTracker(2)
        t_fill, consumed = tracker.consume_arrivals(
            np.array([1.0, np.inf]), np.array([0, 1])
        )
        assert tracker.complete
        assert consumed == 2 and t_fill == np.inf


class TestCoverageTracker:
    def test_replica_ids_map_to_originals(self):
        _check_simple(lambda: CoverageTracker(3), [0, 3, 6, 1, 4, 2])

    def test_duplicate_coverage_not_double_counted(self):
        _check_simple(lambda: CoverageTracker(3), [0, 3, 0, 3, 1])

    def test_partial_then_batch(self):
        _check_simple(lambda: CoverageTracker(4), [5, 2, 7, 0, 1, 6], prefix=3)


@settings(deadline=None, max_examples=150)
@given(
    k=st.integers(min_value=1, max_value=12),
    replicas=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_simple_trackers_match_scalar_loop(k, replicas, data):
    """Random id sequences (duplicates, partial prefixes, RAID-0's one copy
    and replicated layouts)."""
    ids = data.draw(
        st.lists(st.integers(min_value=0, max_value=k * replicas - 1), max_size=4 * k)
    )
    prefix = data.draw(st.integers(min_value=0, max_value=len(ids)))
    _check_simple(lambda: CoverageTracker(k), ids, prefix=prefix)


class TestDecoderTracker:
    K, N = 16, 48

    def _graph(self, seed=0):
        rng = np.random.default_rng(seed)
        return ImprovedLTCode(self.K, c=0.5, delta=0.5).build_graph(self.N, rng)

    def _pair(self, seed=0):
        graph = self._graph(seed)
        return (
            DecoderTracker(PeelingDecoder(graph)),
            DecoderTracker(PeelingDecoder(graph)),
        )

    def _assert_same_decoder_state(self, a, b):
        da, db = a.decoder, b.decoder
        assert da.decoded_count == db.decoded_count
        assert da.blocks_used == db.blocks_used
        assert da.edges_peeled == db.edges_peeled
        assert np.array_equal(da._decoded, db._decoded)
        assert da.resolvers == db.resolvers
        assert a.complete == b.complete

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_loop(self, seed):
        order = np.random.default_rng(100 + seed).permutation(self.N)
        times = _times(self.N)
        ref, new = self._pair(seed)
        got_ref = scalar_consume(ref, times, order)
        got_new = new.consume_arrivals(times, order)
        assert got_new == got_ref
        assert got_new[0] != np.inf  # a full permutation always decodes
        self._assert_same_decoder_state(new, ref)

    def test_insufficient_prefix_returns_inf(self):
        order = np.arange(self.K // 2)
        ref, new = self._pair()
        got_ref = scalar_consume(ref, _times(order.size), order)
        got_new = new.consume_arrivals(_times(order.size), order)
        assert got_new == got_ref == (np.inf, order.size)
        self._assert_same_decoder_state(new, ref)

    def test_stops_at_completing_arrival(self):
        """Arrivals after completion must not be consumed (blocks_used)."""
        order = np.random.default_rng(9).permutation(self.N)
        times = _times(self.N)
        ref, new = self._pair()
        scalar_consume(ref, times, order)
        _, consumed = new.consume_arrivals(times, order)
        assert new.decoder.blocks_used == consumed == ref.decoder.blocks_used


def test_grouped_rs_tracker_has_no_batch_path():
    """The stripe tracker records *when* each RS group filled; the scalar
    observe loop is its contract.  The access engine probes the class (not
    the instance) for ``consume_arrivals``, so absence here routes it to
    the scalar loop."""
    assert getattr(StripeTracker, "consume_arrivals", None) is None
    tracker = StripeTracker(n_stripes=2, nodes=2, k=2, alpha=1, d=2)
    for t, bid in [(0.1, 0), (0.2, 1), (0.3, (1 << 20)), (0.4, (1 << 20) | 1)]:
        tracker.observe(t, bid)
    assert tracker.complete and tracker.fill_times == [0.2, 0.4]
