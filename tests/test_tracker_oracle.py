"""RAID-0's and grouped RS's completion rules against their former classes.

RAID-0 completes through :class:`~repro.accesscore.trackers.CoverageTracker`
(all its ids are below ``k``) and RobuSTore-RS through
:class:`~repro.accesscore.trackers.StripeTracker` at ``alpha = 1, d = k``.
``tests/_tracker_ref.py`` keeps the classes they replaced, verbatim.  The
properties below feed each pair the same arrival sequences — duplicates,
never-arriving (``inf``) blocks, scalar ``observe`` calls and batches
through :func:`~repro.accesscore.timeline.consume_sorted_arrivals` (the
batched ``consume_arrivals`` where a tracker has one) — and compare the
pair after every step.

A last property covers ``alpha > 1``: a stripe tracker must count a node
once all its distinct sub-blocks arrived, which is the RS oracle fed one
node id at that instant.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accesscore.timeline import consume_sorted_arrivals
from repro.accesscore.trackers import CoverageTracker, StripeTracker
from tests._tracker_ref import AllBlocksTracker, GroupedRSTracker

_TIMES = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), st.just(np.inf)
)


def _steps(ids):
    """Steps of ("observe" | "batch", arrivals): arrivals are (t, id)."""
    arrival = st.tuples(_TIMES, ids)
    return st.lists(
        st.tuples(
            st.sampled_from(["observe", "batch"]),
            st.lists(arrival, min_size=1, max_size=8),
        ),
        max_size=8,
    )


def _run(ref, new, steps, same_state):
    """Feed ``ref`` and ``new`` step for step; check them after each."""
    for kind, arrivals in steps:
        if kind == "observe":
            for t, bid in arrivals:
                ref.observe(t, bid)
                new.observe(t, bid)
                same_state(ref, new)
            continue
        arrivals = sorted(arrivals, key=lambda a: a[0])
        times = np.array([t for t, _ in arrivals], dtype=float)
        ids = np.array([b for _, b in arrivals], dtype=np.int64)
        assert consume_sorted_arrivals(new, times, ids) == consume_sorted_arrivals(
            ref, times, ids
        )
        same_state(ref, new)


def _same_coverage(ref, new):
    assert new.complete == ref.complete
    assert new._count == ref._count
    assert np.array_equal(new._have, ref._have)


def _same_stripes(ref, new):
    assert new.complete == ref.complete
    assert new.fill_times == ref.fill_times


@settings(deadline=None, max_examples=200)
@given(k=st.integers(min_value=1, max_value=8), data=st.data())
def test_raid0_coverage_matches_all_blocks(k, data):
    steps = data.draw(_steps(st.integers(min_value=0, max_value=k - 1)))
    _run(AllBlocksTracker(k), CoverageTracker(k), steps, _same_coverage)


@settings(deadline=None, max_examples=200)
@given(
    n_stripes=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=1, max_value=4),
    extra=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_rs_stripe_matches_grouped_rs(n_stripes, k, extra, data):
    nodes = k + extra
    ids = st.builds(
        lambda s, j: (s << 20) | j,
        st.integers(min_value=0, max_value=n_stripes - 1),
        st.integers(min_value=0, max_value=nodes - 1),
    )
    steps = data.draw(_steps(ids))
    _run(
        GroupedRSTracker(n_stripes, k),
        StripeTracker(n_stripes, nodes, k, alpha=1, d=k),
        steps,
        _same_stripes,
    )


@settings(deadline=None, max_examples=200)
@given(
    n_stripes=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=1, max_value=3),
    extra=st.integers(min_value=0, max_value=2),
    alpha=st.integers(min_value=2, max_value=4),
    data=st.data(),
)
def test_stripe_node_counts_once_all_its_blocks_arrived(
    n_stripes, k, extra, alpha, data
):
    nodes = k + extra
    arrivals = data.draw(
        st.lists(
            st.tuples(
                _TIMES,
                st.integers(min_value=0, max_value=n_stripes - 1),
                st.integers(min_value=0, max_value=nodes * alpha - 1),
            ),
            max_size=40,
        )
    )
    new = StripeTracker(n_stripes, nodes, k, alpha, d=k + extra)
    ref = GroupedRSTracker(n_stripes, k)
    subs: dict[tuple[int, int], set[int]] = {}
    for t, s, local in arrivals:
        new.observe(t, (s << 20) | local)
        got = subs.setdefault((s, local // alpha), set())
        if len(got) < alpha:
            got.add(local % alpha)
            if len(got) == alpha:
                ref.observe(t, (s << 20) | (local // alpha))
        _same_stripes(ref, new)
