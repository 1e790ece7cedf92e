"""Set-associative LRU filesystem cache (§6.2.5).

Each filer keeps a 2 GB filesystem cache shared by its eight disks,
modelled as a 4-way set-associative LRU over fixed-size lines.  The paper
uses 4 KB lines; the cache is parametric, and the storage experiments run
it at data-block granularity for speed (the hit/miss behaviour at whole-
block accesses is identical because blocks are loaded and evicted as
aligned groups of lines).
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

#: Tag of a slot that :meth:`SetAssociativeCache.insert_fresh` filled.
#: It equals no key, so a probe never hits it and only the slot counts.
AGED = object()


class SetAssociativeCache:
    """A W-way set-associative LRU cache over (stream, line) keys.

    Parameters
    ----------
    capacity_bytes:
        Total cache capacity.
    line_bytes:
        Line size.
    ways:
        Associativity (lines per set).

    Real tags are unique in a set; :data:`AGED` slots may repeat.
    """

    def __init__(
        self,
        capacity_bytes: int = 2 << 30,
        line_bytes: int = 4 << 10,
        ways: int = 4,
    ) -> None:
        if capacity_bytes <= 0 or line_bytes <= 0 or ways <= 0:
            raise ValueError("capacity, line size and ways must be positive")
        lines = capacity_bytes // line_bytes
        if lines < ways:
            raise ValueError("capacity must hold at least one full set")
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = max(1, lines // ways)
        # Each set is an LRU-ordered list of tags (most recent last).
        self._sets: list[list] = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def _index(self, key) -> tuple[int, tuple]:
        tag = key if isinstance(key, tuple) else (key,)
        return hash(tag) % self.n_sets, tag

    # -- line operations -----------------------------------------------------
    def lookup_line(self, key) -> bool:
        """Probe one line; updates LRU order and hit/miss counters."""
        idx, tag = self._index(key)
        s = self._sets[idx]
        if tag in s:
            s.remove(tag)
            s.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert_line(self, key) -> None:
        """Install a line, evicting the set's LRU entry if full."""
        idx, tag = self._index(key)
        s = self._sets[idx]
        if tag in s:
            s.remove(tag)
        elif len(s) >= self.ways:
            s.pop(0)
        s.append(tag)

    def contains_line(self, key) -> bool:
        """Probe without touching LRU order or counters."""
        idx, tag = self._index(key)
        return tag in self._sets[idx]

    def insert_fresh(self, stream, lines: range) -> None:
        """Install ``(stream, line)`` for each of ``lines`` at once.

        Equivalent to ``insert_line`` per line, in order, for lines the
        cache has never held and nothing probes afterwards.  Sets are
        indexed as in :meth:`_index`.  A set that takes ``k`` of the
        lines drops its ``len + k - ways`` oldest entries (all of them
        once ``k >= ways``) and appends ``min(k, ways)`` :data:`AGED`
        slots.
        """
        tags = zip(repeat(stream), lines)
        hashes = np.fromiter(map(hash, tags), np.int64, len(lines))
        counts = np.bincount(hashes % self.n_sets, minlength=self.n_sets)
        ways = self.ways
        aged = [AGED] * ways
        sets = self._sets
        touched = np.flatnonzero(counts)
        for idx, k in zip(touched.tolist(), counts[touched].tolist()):
            s = sets[idx]
            drop = len(s) + k - ways
            if drop > 0:
                del s[:drop]
            s.extend(aged[:k])

    # -- stats -----------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        for s in self._sets:
            s.clear()
        self.reset_counters()
