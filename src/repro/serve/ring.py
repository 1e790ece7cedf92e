"""Consistent-hash placement of files across filers.

The serving layer must answer "which filers hold file X?" a million
times per sweep, keep keys balanced across filers, and move as few keys
as possible when a filer joins or leaves.  A consistent-hash ring with
virtual nodes does all three: each physical node owns ``vnodes`` points
on a 32-bit ring, a key maps to the first point at or after its own
hash (clockwise), and a replication factor of ``rf`` takes the next
``rf`` *distinct* physical nodes along the ring.

Hashes come from :func:`repro.sim.rng.stable_seeds` (process-independent
FNV-1a, folded a whole column at a time) pushed through a murmur3-style
bit finalizer — FNV-1a alone avalanches poorly on short sequential
inputs like ``("vnode", 3, 17)``, which shows up directly as ring
imbalance.  Placement is identical in every worker process — a ring
decision is part of the serving payload's determinism contract.

The ring is held as arrays, so a whole catalogue places in one pass: one
``searchsorted`` of the keys' hashes over the sorted points, then one
row copy each from a successor table that lists every point's replica
set.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.metadata import FileRecord
from repro.sim.rng import stable_seeds


#: murmur3's finalizer multipliers; uint32 products wrap to 32 bits.
_MIX_1 = np.uint32(0x85EBCA6B)
_MIX_2 = np.uint32(0xC2B2AE35)


def _mix32(h: np.ndarray) -> np.ndarray:
    """murmur3's 32-bit finalizer over a uint32 array of stable_seeds."""
    h = (h ^ (h >> 16)) * _MIX_1
    h = (h ^ (h >> 13)) * _MIX_2
    return h ^ (h >> 16)


class HashRing:
    """A consistent-hash ring with virtual nodes.

    The ring is a function of its node set: every change rebuilds the
    sorted points from scratch, ordering exact hash collisions by the
    owners' ``str`` forms, so it is identical however nodes were added.

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
        self._nodes: set = set(nodes)
        self._rebuild()

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> list:
        return sorted(self._nodes)

    def _rebuild(self) -> None:
        """Lay out the sorted points (uint32) and the node owning each."""
        nodes = sorted(self._nodes, key=str)
        hashes = [
            _mix32(stable_seeds("vnode", node, range(self.vnodes))) for node in nodes
        ]
        points = np.concatenate(hashes) if hashes else np.empty(0, dtype=np.uint32)
        # Nodes are laid out in str order, so a stable sort breaks equal
        # points by (point, str(owner)).
        order = np.argsort(points, kind="stable")
        self._points = points[order]
        self._owners = [nodes[i] for i in (order // self.vnodes).tolist()]
        #: count -> successor table (see :meth:`_successors`).
        self._tables: dict[int, list[list]] = {}

    def add_node(self, node) -> None:
        """Add ``node``'s virtual points (idempotent)."""
        if node not in self._nodes:
            self._nodes.add(node)
            self._rebuild()

    def remove_node(self, node) -> None:
        """Remove ``node``'s virtual points (idempotent)."""
        if node in self._nodes:
            self._nodes.discard(node)
            self._rebuild()

    def _successors(self, count: int) -> list[list]:
        """``table[p]``: the first ``count`` distinct owners clockwise of point ``p``.

        One walk fills the last point's row; every earlier row is its own
        owner followed by the next row without that owner, so one
        backward pass fills the rest.
        """
        count = min(count, len(self._nodes))
        table = self._tables.get(count)
        if table is None:
            owners = self._owners
            row: list = []
            for owner in owners[-1:] + owners:
                if owner not in row:
                    row.append(owner)
                    if len(row) == count:
                        break
            table = [row] * len(owners)
            for p in range(len(owners) - 2, -1, -1):
                owner = owners[p]
                row = [owner] + [o for o in row if o != owner][: count - 1]
                table[p] = row
            self._tables[count] = table
        return table

    def nodes_for_many(self, keys, count: int) -> list[list]:
        """:meth:`nodes_for` of every key in ``keys`` (all ints or all strs)."""
        if not self._owners or count < 1:
            return [[] for _ in keys]
        table = self._successors(count)
        at = np.searchsorted(self._points, _mix32(stable_seeds("key", keys)))
        return [list(table[p]) for p in (at % len(self._owners)).tolist()]

    def nodes_for(self, key, count: int) -> list:
        """The first ``count`` *distinct* physical nodes clockwise of ``key``.

        The first entry is the primary, the rest are its replicas — all
        guaranteed distinct, capped at the number of physical nodes.
        """
        return self.nodes_for_many([key], count)[0]

    def primary(self, key):
        """The physical node owning ``key`` (first clockwise point)."""
        nodes = self.nodes_for(key, 1)
        return nodes[0] if nodes else None


class FilePlacer:
    """Ring placement recorded in the distributed metadata service.

    Placement decisions live on the ring; the *record* of each decision
    lives in the hash-partitioned metadata service, exactly as §4.2
    splits decision-making from bookkeeping.  ``place`` registers files
    once; ``lookup`` serves every later request from metadata.  Both
    take a sequence of names and work in one pass over it.
    """

    def __init__(self, ring: HashRing, metadata) -> None:
        self.ring = ring
        self.metadata = metadata

    def place(
        self,
        names,
        size_bytes: int,
        scheme: str,
        replication_factor: int,
    ) -> list[list]:
        """Choose ``replication_factor`` distinct filers per name; record them."""
        placed = self.ring.nodes_for_many(names, replication_factor)
        if placed and not placed[0]:
            raise ValueError("cannot place on an empty ring")
        size_bytes = int(size_bytes)
        self.metadata.commit_many([
            FileRecord(
                name=name,
                size_bytes=size_bytes,
                scheme=scheme,
                extra={"filers": [int(f) for f in filers]},
            )
            for name, filers in zip(names, placed)
        ])
        return placed

    def lookup(self, names) -> list[list]:
        """The filers holding each name (primary first), from metadata."""
        return [
            list(record.extra["filers"])
            for record in self.metadata.lookup_many(names)
        ]
