"""Reference trackers: RAID-0's and grouped RS's own classes, as they were.

RAID-0 now completes through :class:`~repro.accesscore.trackers.CoverageTracker`
(its ids are all below ``k``) and RobuSTore-RS through
:class:`~repro.accesscore.trackers.StripeTracker` at ``alpha = 1, d = k``.
This module keeps the two classes those replaced, verbatim:

* :class:`AllBlocksTracker` — every distinct block must arrive, with the
  batched :func:`~repro.accesscore.trackers._consume_batch` fast path fed
  the ids themselves;
* :class:`GroupedRSTracker` — every group holds ``group_size`` distinct
  blocks, with the per-group fill times the pipelined decode reads.

It exists solely as the oracle for ``tests/test_tracker_oracle.py``: both
replacements must agree with these on every step of the same arrival
sequences.  Do not use this in production paths.
"""

from __future__ import annotations

import numpy as np

from repro.accesscore.trackers import TrackerBase, _consume_batch


class AllBlocksTracker(TrackerBase):
    """RAID-0: every distinct block must arrive."""

    def __init__(self, k: int) -> None:
        self.k = k
        self._have = np.zeros(k, dtype=bool)
        self._count = 0

    def add(self, block_id: int) -> None:
        if not self._have[block_id]:
            self._have[block_id] = True
            self._count += 1

    def consume_arrivals(self, times: np.ndarray, ids: np.ndarray) -> tuple[float, int]:
        """Batched arrival consumption; see :func:`_consume_batch`."""
        return _consume_batch(self, ids, times)

    @property
    def complete(self) -> bool:
        return self._count >= self.k


class GroupedRSTracker(TrackerBase):
    """Complete when every RS group holds >= group_size distinct blocks.

    ``observe`` additionally records *when* each group filled
    (``fill_times``), which the grouped-RS completion policy turns into the
    pipelined per-group decode schedule.
    """

    def __init__(self, n_groups: int, group_size: int) -> None:
        self.group_size = group_size
        self._counts = np.zeros(n_groups, dtype=np.int64)
        self._filled = 0
        self._seen: set[int] = set()
        self.n_groups = n_groups
        self.fill_times: list[float] = []

    def add(self, block_id: int) -> None:
        if block_id in self._seen:
            return
        self._seen.add(block_id)
        g = block_id >> 20  # group packed in the high bits
        if self._counts[g] < self.group_size:
            self._counts[g] += 1
            if self._counts[g] == self.group_size:
                self._filled += 1

    def observe(self, t: float, block_id: int) -> None:
        before = self._filled
        self.add(block_id)
        if self._filled > before:
            self.fill_times.extend([t] * (self._filled - before))

    @property
    def complete(self) -> bool:
        return self._filled >= self.n_groups
