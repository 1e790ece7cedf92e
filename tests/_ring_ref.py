"""Reference hash ring: the serving layer's original insert-and-walk ring.

This module preserves, verbatim, the ring :mod:`repro.serve.ring` shipped
before placement became columnar: every virtual point is inserted one at
a time with ``bisect`` (exact hash collisions broken by the owners'
``str`` forms), a key's replica set comes from a clockwise walk, and the
murmur3 finalizer is scalar.  It exists solely as the *oracle* for the
differential test in ``tests/test_serve_ring.py``, which asserts that the
array-built ring lays out the same points and owners and answers every
lookup identically.

Do not use this in production paths; it is intentionally the slow,
obviously-correct implementation.
"""

from __future__ import annotations

import bisect

from repro.sim.rng import stable_seed

__all__ = ["HashRing"]

_MASK32 = 0xFFFFFFFF


def _mix32(h: int) -> int:
    """murmur3's 32-bit finalizer: full avalanche over stable_seed."""
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


class HashRing:
    """A consistent-hash ring with virtual nodes.

    Parameters
    ----------
    nodes:
        Initial physical node ids (any hashable, stringified for hashing).
    vnodes:
        Ring points per physical node.  More points flatten the load
        distribution (the max/mean key-share imbalance shrinks roughly
        with ``1/sqrt(vnodes)``) at the cost of ring size.
    """

    def __init__(self, nodes=(), vnodes: int = 128) -> None:
        if vnodes < 1:
            raise ValueError("need at least one virtual node per node")
        self.vnodes = int(vnodes)
        self._nodes: set = set()
        #: Sorted ring positions and the physical node owning each.
        self._points: list[int] = []
        self._owners: list = []
        for node in nodes:
            self.add_node(node)

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> list:
        return sorted(self._nodes)

    @staticmethod
    def _key_hash(key) -> int:
        return _mix32(stable_seed("key", key))

    def _vnode_hashes(self, node) -> list[int]:
        return [
            _mix32(stable_seed("vnode", node, i)) for i in range(self.vnodes)
        ]

    def add_node(self, node) -> None:
        """Insert ``node``'s virtual points (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for h in self._vnode_hashes(node):
            idx = bisect.bisect_left(self._points, h)
            # Break exact hash collisions by node order so the ring is
            # identical however nodes were added.
            while idx < len(self._points) and self._points[idx] == h and str(
                self._owners[idx]
            ) < str(node):
                idx += 1
            self._points.insert(idx, h)
            self._owners.insert(idx, node)

    def remove_node(self, node) -> None:
        """Remove ``node``'s virtual points (idempotent)."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        keep = [(p, o) for p, o in zip(self._points, self._owners) if o != node]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    def primary(self, key):
        """The physical node owning ``key`` (first clockwise point)."""
        nodes = self.nodes_for(key, 1)
        return nodes[0] if nodes else None

    def nodes_for(self, key, count: int) -> list:
        """The first ``count`` *distinct* physical nodes clockwise of ``key``.

        The first entry is the primary, the rest are its replicas — all
        guaranteed distinct, capped at the number of physical nodes.
        """
        if not self._points or count < 1:
            return []
        start = bisect.bisect_left(self._points, self._key_hash(key))
        out: list = []
        seen: set = set()
        n = len(self._points)
        for i in range(n):
            owner = self._owners[(start + i) % n]
            if owner not in seen:
                seen.add(owner)
                out.append(owner)
                if len(out) >= count:
                    break
        return out
