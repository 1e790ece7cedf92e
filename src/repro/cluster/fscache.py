"""Set-associative LRU filesystem cache (§6.2.5).

Each filer keeps a 2 GB filesystem cache shared by its eight disks,
modelled as a 4-way set-associative LRU over fixed-size lines.  The paper
uses 4 KB lines; the cache is parametric, and the storage experiments run
it at data-block granularity for speed (the hit/miss behaviour at whole-
block accesses is identical because blocks are loaded and evicted as
aligned groups of lines).
"""

from __future__ import annotations

import numpy as np

#: Tag of a slot that :meth:`SetAssociativeCache.insert_fresh` filled.
#: It equals no key, so a probe never hits it and only the slot counts.
AGED = object()

# CPython's tuple hash on a 64-bit build (``tuplehash`` in
# Objects/tupleobject.c, unchanged since 3.8): xxHash's primes, mixed in
# wrapping 64-bit arithmetic.
_MASK = (1 << 64) - 1
_XXPRIME_1 = 11400714785074694791
_XXPRIME_2 = 14029467366897019727
_XXPRIME_5 = 2870177450012600261
#: The modulus of CPython's int hash: an int in ``[0, 2**61 - 1)``
#: hashes to itself.
_HASH_MODULUS = (1 << 61) - 1


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

    def _indices(self, stream, lines: range) -> np.ndarray:
        """``hash((stream, line)) % n_sets`` for each of ``lines``, as an
        int64 array: :meth:`_index`'s rule without a hash call per line.

        CPython hashes a pair as ``acc = P5``, then per item
        ``acc = rotl31(acc + hash(item) * P2) * P1``, then
        ``acc += 2 ^ P5 ^ 3527539``, mapping ``-1`` to ``1546275796``.
        The stream's round is one scalar; the line's runs on the whole
        range in uint64, which wraps as the C code does.  Lines must lie
        in ``[0, 2**61 - 1)``, where an int hashes to itself.
        """
        # A range's lines lie between its two ends.
        if lines and not (0 <= lines[0] < _HASH_MODULUS and 0 <= lines[-1] < _HASH_MODULUS):
            raise ValueError("lines must lie in [0, 2**61 - 1)")
        acc = (_XXPRIME_5 + (hash(stream) & _MASK) * _XXPRIME_2) & _MASK
        acc = (((acc << 31) | (acc >> 33)) * _XXPRIME_1) & _MASK
        u64 = np.uint64
        h = np.arange(lines.start, lines.stop, lines.step, dtype=u64)
        h *= u64(_XXPRIME_2)
        h += u64(acc)
        h = (h << u64(31)) | (h >> u64(33))
        h *= u64(_XXPRIME_1)
        h += u64(2 ^ _XXPRIME_5 ^ 3527539)
        h = h.view(np.int64)
        h[h == -1] = 1546275796
        # numpy's integer % takes the divisor's sign, as Python's does.
        return h % self.n_sets

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
        indexed as in :meth:`_index`, by :meth:`_indices`.  A set that
        takes ``k >= ways`` of the lines holds ``ways`` :data:`AGED`
        slots after; a set that takes fewer drops its
        ``len + k - ways`` oldest entries and appends ``k`` of them.
        """
        counts = np.bincount(self._indices(stream, lines), minlength=self.n_sets)
        ways = self.ways
        aged = [AGED] * ways
        sets = self._sets
        for idx in np.flatnonzero(counts >= ways).tolist():
            sets[idx] = aged[:]
        few = np.flatnonzero((counts > 0) & (counts < ways))
        for idx, k in zip(few.tolist(), counts[few].tolist()):
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
