"""The adaptive read's array victim scan must pick what the per-run loop did.

:class:`~repro.accesscore.adaptive.VictimIndex` replaced a Python loop
that ran one ``searchsorted`` per live run at every hand-off decision.
The loop is kept here, verbatim in behaviour, as the reference oracle:

* property tests feed both the same runs — completion rows with ties,
  ``inf`` tails (failed disks), drained runs, single-holder layouts,
  decision times on and between completions — and demand the same
  ``(victim, count)``;
* end-to-end, faulted ``rraid-a`` and ``mirror+adaptive`` reads run once
  on the array index and once on an index whose pick is the loop, and
  must return identical results.

:class:`~repro.accesscore.adaptive.ArrivalLog` replaced one global
arrival list that every hand-off filtered for the victim's cancelled
blocks; the log trims the victim's own batch instead.  That filter is
the second oracle: the same faulted reads, plus warm-cache ones whose
round-1 hits are settled arrivals, run on a log that keeps the global
list too, checks both agree at every hand-off, and reports the filter's
counts and order to the read.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accesscore import adaptive
from repro.accesscore.adaptive import ArrivalLog, VictimIndex
from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.experiments.faultstorm import HORIZON_S, STORM
from repro.experiments.harness import TrialPlan, run_scheme


def reference_pick(ready, completions, hold_cum, thief, t):
    """The per-run loop the array scan replaced.

    ``ready[r]`` is run ``r``'s last completion (``-inf`` once drained by
    theft), ``completions[r]`` its sorted batch completions and
    ``hold_cum[r]`` the cumulative holder rows ``H[batch].cumsum(axis=0)``.
    The strict ``>`` keeps the first run among equal counts.
    """
    best_b, best_cnt = None, 0
    for b_idx in np.nonzero(ready > t)[0].tolist():
        if b_idx == thief:
            continue
        done = int(completions[b_idx].searchsorted(t, side="right"))
        cum = hold_cum[b_idx]
        cnt = int(cum[-1, thief])
        if done:
            cnt -= int(cum[done - 1, thief])
        if cnt > best_cnt:
            best_b, best_cnt = b_idx, cnt
    return best_b, best_cnt


class LoopIndex(VictimIndex):
    """A :class:`VictimIndex` whose pick is the reference loop."""

    #: Picks answered by the loop (proves a patched read really used it).
    picks = 0

    def __init__(self, holders, width):
        super().__init__(holders, width)
        n_runs = holders.shape[1]
        self.ready = np.full(n_runs, -np.inf)
        self.rows = [np.empty(0)] * n_runs
        self.cums = [None] * n_runs

    def refresh(self, run, ids, completions):
        super().refresh(run, ids, completions)
        self.rows[run] = completions
        if ids:
            self.ready[run] = completions[-1]
            self.cums[run] = self.holders[ids].cumsum(axis=0, dtype=np.int32)
        else:
            self.ready[run] = -np.inf

    def pick(self, thief, t):
        LoopIndex.picks += 1
        return reference_pick(self.ready, self.rows, self.cums, thief, t)


class GlobalFilterLog(ArrivalLog):
    """An :class:`ArrivalLog` that also keeps the one global arrival list
    the per-batch trim replaced and cancels on it with the old filter.

    Every cancel asserts that the filter and the trim dropped the same
    number of arrivals and left the same multiset; the read then runs on
    the filter's counts and sorted list.
    """

    #: Cancels seen (proves a patched read really used the log).
    cancels = 0

    def __init__(self, n_runs):
        super().__init__(n_runs)
        self.arrivals = []
        self.batch_ids = [[] for _ in range(n_runs)]

    def settle(self, t, block):
        super().settle(t, block)
        self.arrivals.append((t, block))

    def start_batch(self, run, arrivals):
        super().start_batch(run, arrivals)
        self.arrivals.extend(arrivals)
        self.batch_ids[run] = [b for _, b in arrivals]

    def cancel(self, run, done):
        GlobalFilterLog.cancels += 1
        trimmed = super().cancel(run, done)
        cancelled = set(self.batch_ids[run][done:])  # the victim's remainder
        n_before = len(self.arrivals)
        self.arrivals[:] = [item for item in self.arrivals if item[1] not in cancelled]
        filtered = n_before - len(self.arrivals)
        assert filtered == trimmed
        assert sorted(self.arrivals) == super().ordered()
        return filtered

    def ordered(self):
        self.arrivals.sort()
        return self.arrivals


# -- property tests ----------------------------------------------------------

#: Completion and decision times come from a coarse grid so ties — between
#: blocks, across runs, and with the decision time itself — are common.
_TIMES = st.integers(0, 12).map(lambda i: i * 0.25)


@st.composite
def scan_cases(draw):
    n_runs = draw(st.integers(1, 6))
    n_units = draw(st.integers(1, 18))
    if draw(st.booleans()):
        # Single-holder layout (LT, grouped RS): every unit on one disk.
        holders = np.zeros((n_units, n_runs), dtype=bool)
        homes = draw(st.lists(st.integers(0, n_runs - 1), min_size=n_units, max_size=n_units))
        holders[np.arange(n_units), homes] = True
    else:
        flat = draw(
            st.lists(st.booleans(), min_size=n_units * n_runs, max_size=n_units * n_runs)
        )
        holders = np.array(flat, dtype=bool).reshape(n_units, n_runs)
    batches = []
    for _ in range(n_runs):
        ids = draw(st.lists(st.integers(0, n_units - 1), max_size=6, unique=True))
        times = sorted(draw(st.lists(_TIMES, min_size=len(ids), max_size=len(ids))))
        failed_from = draw(st.integers(0, len(ids)))  # inf tail: a failed disk
        completions = np.array(times, dtype=np.float64)
        completions[failed_from:] = np.inf
        batches.append((ids, completions))
    t = draw(st.one_of(_TIMES, st.just(np.inf)))
    return holders, batches, t


def _indexes(holders, batches):
    width = max(len(ids) for ids, _ in batches)
    fast, slow = VictimIndex(holders, width), LoopIndex(holders, width)
    for run, (ids, completions) in enumerate(batches):
        for index in (fast, slow):
            index.refresh(run, ids, completions)
    return fast, slow


@settings(deadline=None, max_examples=300)
@given(scan_cases())
def test_pick_matches_reference_loop(case):
    holders, batches, t = case
    fast, slow = _indexes(holders, batches)
    for thief in range(holders.shape[1]):
        assert fast.pick(thief, t) == slow.pick(thief, t)


@settings(deadline=None, max_examples=150)
@given(scan_cases(), st.data())
def test_refresh_replaces_a_batch_completely(case, data):
    """A run handed a shorter batch (or drained to none) leaves no trace of
    its previous, longer one — the padding is re-filled on every refresh."""
    holders, batches, t = case
    fast, slow = _indexes(holders, batches)
    run = data.draw(st.integers(0, len(batches) - 1))
    ids, completions = batches[run]
    keep = data.draw(st.integers(0, len(ids)))
    for index in (fast, slow):
        index.refresh(run, ids[:keep], completions[:keep])
    for thief in range(holders.shape[1]):
        assert fast.pick(thief, t) == slow.pick(thief, t)


def test_ties_go_to_the_lowest_run():
    holders = np.ones((6, 3), dtype=bool)
    fast, slow = _indexes(holders, [([0, 1], np.array([5.0, 6.0])),
                                    ([2, 3], np.array([5.0, 6.0])),
                                    ([4, 5], np.array([5.0, 6.0]))])
    assert fast.pick(0, 1.0) == slow.pick(0, 1.0) == (1, 2)
    assert fast.pick(2, 1.0) == slow.pick(2, 1.0) == (0, 2)


def test_a_decision_time_equal_to_a_completion_counts_it_served():
    holders = np.ones((3, 2), dtype=bool)
    fast, _ = _indexes(holders, [([], np.empty(0)), ([0, 1, 2], np.array([1.0, 2.0, 3.0]))])
    assert fast.pick(0, 2.0) == (1, 1)  # side="right": the block ending at 2.0 is served
    assert fast.pick(0, 3.0) == (None, 0)


# -- end to end ----------------------------------------------------------------


def _faulted_reads(scheme, **plan):
    access = AccessConfig(data_bytes=32 * MB, block_bytes=1 * MB, n_disks=8, redundancy=3.0)
    trial_plan = TrialPlan(
        access=access, pool=12, trials=6, seed=7, engine="closed", **{"mode": "read", **plan}
    )
    return [r.to_jsonable() for r in run_scheme(trial_plan, scheme)]


_SCHEMES = pytest.mark.parametrize("scheme", ["rraid-a", "mirror+adaptive"])
_FAULTS = pytest.mark.parametrize(
    "faults",
    [
        {"failed_disks": 1},
        {"failed_disks": 2},
        {"fault_model": STORM, "fault_horizon_s": HORIZON_S},
    ],
    ids=["one-failed", "two-failed", "storm"],
)


@_SCHEMES
@_FAULTS
def test_faulted_adaptive_reads_match_reference_loop(monkeypatch, scheme, faults):
    fast = _faulted_reads(scheme, **faults)
    monkeypatch.setattr(adaptive, "VictimIndex", LoopIndex)
    monkeypatch.setattr(LoopIndex, "picks", 0)
    slow = _faulted_reads(scheme, **faults)
    assert LoopIndex.picks > 0
    assert fast == slow
    assert any(r["rounds"] > 1 for r in fast)  # hand-offs actually happened


@_SCHEMES
@pytest.mark.parametrize(
    "faults",
    [
        {"failed_disks": 1},
        {"failed_disks": 2},
        {"fault_model": STORM, "fault_horizon_s": HORIZON_S},
        # A cache half the file's size: round-1 hits and hand-offs both
        # occur on every trial set, whatever the hash seed.
        {"mode": "raw", "fs_cache_bytes": 16 * MB, "failed_disks": 1},
    ],
    ids=["one-failed", "two-failed", "storm", "warm-cache"],
)
def test_faulted_adaptive_reads_match_global_arrival_filter(monkeypatch, scheme, faults):
    fast = _faulted_reads(scheme, **faults)
    monkeypatch.setattr(adaptive, "ArrivalLog", GlobalFilterLog)
    monkeypatch.setattr(GlobalFilterLog, "cancels", 0)
    slow = _faulted_reads(scheme, **faults)
    assert GlobalFilterLog.cancels > 0
    assert fast == slow
    if faults.get("mode") == "raw":
        assert any(r["cache_hits"] > 0 for r in fast)  # settled round-1 hits
