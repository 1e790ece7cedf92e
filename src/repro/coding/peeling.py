"""Incremental peeling (belief-propagation) decoder for LDPC-style codes.

The decoder consumes coded blocks one at a time, in any order — exactly how
a RobuSTore client receives them from heterogeneous disks — and reports as
soon as all ``k`` original blocks are resolvable.  It implements the *lazy
XOR* improvement of §5.2.3: payload XOR work is deferred until the moment a
block is actually decoded, so no intermediate data is ever produced.

Two operating modes:

* **symbolic** (no payloads): tracks only decodability — the simulator's hot
  path, used to find the number of blocks needed to finish a read.
* **data** (payloads supplied to :meth:`PeelingDecoder.add`): reconstructs
  the original blocks.
"""

from __future__ import annotations

from collections import defaultdict, deque

import numpy as np

from repro.coding.lt import LTGraph
from repro.coding.xorblocks import xor_into


class PeelingDecoder:
    """Online peeling decoder over an :class:`~repro.coding.lt.LTGraph`.

    Parameters
    ----------
    graph:
        The coding graph shared with the encoder.
    block_len:
        If given, the decoder operates in data mode and expects each
        :meth:`add` call to carry a payload of this many bytes.
    """

    def __init__(self, graph: LTGraph, block_len: int | None = None) -> None:
        self.graph = graph
        self.k = graph.k
        self.block_len = block_len
        self._decoded = np.zeros(self.k, dtype=bool)
        # Mirror of ``_decoded`` with O(1) native indexing: the add/ripple
        # loops probe it per neighbour, where numpy scalar indexing is the
        # dominant cost at LT degrees (~ln k elements per block).
        self._dec = bytearray(self.k)
        # coded_id -> neighbours as a native int tuple (graph arrays are
        # numpy; converting once per coded block keeps the loops pure-C).
        self._nbt: dict[int, tuple[int, ...]] = {}
        self._decoded_count = 0
        self._blocks_used = 0
        self._xor_ops = 0
        self._edges_peeled = 0
        # Per arrived coded block: count of still-undecoded neighbours.
        self._pending: dict[int, int] = {}
        # Coded blocks fully consumed (resolved or redundant on arrival).
        self._consumed: set[int] = set()
        #: Coded blocks that actually resolved an original (the encoder's
        #: graph-repair pass must not replace these).
        self.resolvers: set[int] = set()
        # original id -> arrived coded blocks still referencing it.
        self._rev: dict[int, list[int]] = defaultdict(list)
        self._payloads: dict[int, np.ndarray] = {}
        self._data = (
            np.zeros((self.k, block_len), dtype=np.uint8)
            if block_len is not None
            else None
        )

    # -- state ---------------------------------------------------------
    @property
    def decoded_count(self) -> int:
        return self._decoded_count

    @property
    def is_complete(self) -> bool:
        return self._decoded_count >= self.k

    @property
    def blocks_used(self) -> int:
        """Number of coded blocks fed in so far."""
        return self._blocks_used

    @property
    def reception_overhead(self) -> float:
        """epsilon such that (1 + epsilon) K blocks were consumed."""
        return self._blocks_used / self.k - 1.0

    @property
    def xor_ops(self) -> int:
        """Block-XOR operations performed (lazy: only on resolution)."""
        return self._xor_ops

    @property
    def edges_peeled(self) -> int:
        """Graph edges consumed while decoding (Fig 5-2's metric)."""
        return self._edges_peeled

    def is_decoded(self, original_id: int) -> bool:
        return bool(self._decoded[original_id])

    # -- feeding --------------------------------------------------------
    def add(self, coded_id: int, payload: np.ndarray | None = None) -> int:
        """Feed one coded block; return the number of newly decoded originals.

        ``coded_id`` indexes into the graph.  Feeding the same block twice is
        a no-op for decoding progress but still counts toward
        :attr:`blocks_used` (the client did receive the bytes).
        """
        if not 0 <= coded_id < self.graph.n:
            raise IndexError(f"coded block {coded_id} out of range")
        self._blocks_used += 1
        if coded_id in self._pending or coded_id in self._consumed:
            return 0
        if self._data is not None:
            if payload is None:
                raise ValueError("data-mode decoder requires a payload")
            self._payloads[coded_id] = np.array(payload, dtype=np.uint8, copy=True)

        nb = self._nbt.get(coded_id)
        if nb is None:
            nb = self._nbt[coded_id] = tuple(self.graph.neighbors[coded_id].tolist())
        dec = self._dec
        undecoded = [o for o in nb if not dec[o]]
        remaining = len(undecoded)
        if remaining == 0:
            self._consumed.add(coded_id)
            self._payloads.pop(coded_id, None)
            return 0
        self._pending[coded_id] = remaining
        rev = self._rev
        for o in undecoded:
            rev[o].append(coded_id)
        if remaining == 1:
            return self._ripple(coded_id)
        return 0

    def _ripple(self, start_coded: int) -> int:
        """Process the cascade of degree-one coded blocks."""
        newly = 0
        queue = deque([start_coded])
        while queue:
            cj = queue.popleft()
            if self._pending.get(cj, 0) != 1:
                continue
            dec = self._dec
            undecoded = [o for o in self._nbt[cj] if not dec[o]]
            assert len(undecoded) == 1
            target = undecoded[0]
            self._resolve(target, cj)
            newly += 1
            # Releasing `target` may create new degree-one blocks.
            for cj2 in self._rev.pop(target, []):
                if cj2 in self._pending:
                    self._pending[cj2] -= 1
                    if self._pending[cj2] == 1:
                        queue.append(cj2)
                    elif self._pending[cj2] == 0:
                        self._consumed.add(cj2)
                        del self._pending[cj2]
                        self._payloads.pop(cj2, None)
            if self.is_complete:
                break
        return newly

    def _resolve(self, original_id: int, coded_id: int) -> None:
        """Decode ``original_id`` from coded block ``coded_id`` (lazy XOR)."""
        nb = self._nbt[coded_id]
        self._edges_peeled += len(nb)
        if self._data is not None:
            buf = self._data[original_id]
            buf[:] = self._payloads[coded_id]
            for o in nb:
                if o != original_id:
                    xor_into(buf, self._data[o])
                    self._xor_ops += 1
        else:
            self._xor_ops += max(0, len(nb) - 1)
        self._decoded[original_id] = True
        self._dec[original_id] = 1
        self._decoded_count += 1
        self._pending.pop(coded_id, None)
        self._consumed.add(coded_id)
        self.resolvers.add(coded_id)
        self._payloads.pop(coded_id, None)

    # -- results ----------------------------------------------------------
    def get_data(self) -> np.ndarray:
        """Return the decoded original blocks (data mode only)."""
        if self._data is None:
            raise RuntimeError("decoder is in symbolic mode")
        if not self.is_complete:
            raise RuntimeError(
                f"decoding incomplete: {self._decoded_count}/{self.k} blocks"
            )
        return self._data


def blocks_needed(graph: LTGraph, order: np.ndarray | list[int]) -> int:
    """Number of coded blocks (in the given arrival order) to fully decode.

    Returns ``len(order) + 1`` if the prefix never completes (sentinel used
    by callers to detect insufficient redundancy).
    """
    decoder = PeelingDecoder(graph)
    for count, coded_id in enumerate(order, start=1):
        decoder.add(int(coded_id))
        if decoder.is_complete:
            return count
    return len(order) + 1


def decodable(graph: LTGraph, subset: np.ndarray | list[int] | None = None) -> bool:
    """Whether the coded-block ``subset`` (default: all) can reconstruct."""
    decoder = PeelingDecoder(graph)
    ids = range(graph.n) if subset is None else subset
    for coded_id in ids:
        decoder.add(int(coded_id))
        if decoder.is_complete:
            return True
    return decoder.is_complete
