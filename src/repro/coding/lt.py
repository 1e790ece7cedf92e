"""LT codes — original (Luby 2002) and the dissertation's improved variant.

The improved variant (§5.2.3) differs from the original in three ways:

1. **Uniform coverage** — original-block neighbours are drawn from a
   pseudo-random permutation stream so all original blocks end up with equal
   (±1) node degree, removing low-degree bottleneck blocks.
2. **Guaranteed decodability** — after generating the bipartite graph the
   encoder peels it symbolically; if the full set of N coded blocks cannot
   reconstruct the data the graph is regenerated.
3. **Lazy XOR decoding** — performed by
   :class:`repro.coding.peeling.PeelingDecoder`, which defers all memory XOR
   until a block can actually be resolved.

Being *rateless*, an LT encoder can extend an existing graph with additional
coded blocks at any time (used by RobuSTore's speculative writes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.coding.soliton import expected_degree, robust_soliton, sample_degrees
from repro.coding.xorblocks import xor_reduce


@dataclass
class LTGraph:
    """A bipartite LT coding graph.

    Attributes
    ----------
    k:
        Number of original blocks (left nodes).
    neighbors:
        ``neighbors[j]`` is the sorted array of original-block indices XORed
        into coded block ``j``.
    """

    k: int
    neighbors: list = field(default_factory=list)

    @property
    def n(self) -> int:
        """Number of coded blocks currently in the graph."""
        return len(self.neighbors)

    @property
    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.neighbors)

    def coded_degrees(self) -> np.ndarray:
        return np.array([len(nb) for nb in self.neighbors], dtype=np.int64)

    def original_degrees(self) -> np.ndarray:
        """Node degree of each original block (coverage profile)."""
        deg = np.zeros(self.k, dtype=np.int64)
        for nb in self.neighbors:
            deg[nb] += 1
        return deg

    def affected_coded_blocks(self, original_id: int) -> list[int]:
        """Coded blocks that must change if ``original_id`` is updated.

        Supports the update procedure of §4.3.4: modifying one original
        block requires regenerating only the coded blocks adjacent to it.
        """
        if not 0 <= original_id < self.k:
            raise IndexError(f"original block {original_id} out of range")
        return [j for j, nb in enumerate(self.neighbors) if original_id in nb]


class LTCode:
    """Original LT code with the robust soliton degree distribution.

    Parameters
    ----------
    k:
        Word length (number of original blocks).
    c, delta:
        Robust soliton parameters (the dissertation's ``C`` and ``δ``).
    """

    def __init__(self, k: int, c: float = 0.1, delta: float = 0.5) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.c = c
        self.delta = delta
        self.distribution = robust_soliton(k, c, delta)

    @property
    def mean_coded_degree(self) -> float:
        return expected_degree(self.distribution)

    # -- graph construction ------------------------------------------------
    def build_graph(self, n: int, rng: np.random.Generator) -> LTGraph:
        """Generate a graph with ``n`` coded blocks."""
        graph = LTGraph(self.k)
        self.extend_graph(graph, n, rng)
        return graph

    def extend_graph(self, graph: LTGraph, count: int, rng: np.random.Generator) -> None:
        """Ratelessly append ``count`` more coded blocks to ``graph``."""
        degrees = sample_degrees(self.distribution, count, rng)
        k = self.k
        for d in degrees:
            d = min(int(d), k)
            graph.neighbors.append(np.sort(rng.choice(k, size=d, replace=False)))

    # -- data path ----------------------------------------------------------
    def encode(self, data_blocks: np.ndarray, graph: LTGraph) -> np.ndarray:
        """XOR-encode ``data_blocks`` (k rows) into ``graph.n`` coded blocks."""
        data_blocks = np.asarray(data_blocks, dtype=np.uint8)
        if data_blocks.shape[0] != self.k:
            raise ValueError(
                f"expected {self.k} original blocks, got {data_blocks.shape[0]}"
            )
        out = np.empty((graph.n, data_blocks.shape[1]), dtype=np.uint8)
        for j, nb in enumerate(graph.neighbors):
            out[j] = xor_reduce(data_blocks, nb)
        return out


class ImprovedLTCode(LTCode):
    """LT code with uniform coverage and guaranteed decodability (§5.2.3).

    Parameters
    ----------
    max_attempts:
        How many times :meth:`build_graph` may regenerate before giving up.
    """

    def __init__(
        self,
        k: int,
        c: float = 0.1,
        delta: float = 0.5,
        max_attempts: int = 50,
    ) -> None:
        super().__init__(k, c, delta)
        self.max_attempts = max_attempts

    def build_graph(self, n: int, rng: np.random.Generator) -> LTGraph:
        """Generate a graph of ``n`` coded blocks that provably decodes.

        The full set of ``n`` blocks is peeled symbolically; failure triggers
        regeneration (improvement 1 of §5.2.3).

        Raises
        ------
        RuntimeError
            If no decodable graph is found within ``max_attempts`` tries
            (indicates ``n`` is too small for ``k`` at these parameters).
        """
        from repro.coding.peeling import PeelingDecoder

        if n < self.k:
            raise RuntimeError(
                f"no decodable LT graph possible: n={n} < k={self.k}"
            )
        graph = None
        # Below ~1.3K coded blocks a random graph almost never peels fully;
        # go straight to the constructive repair instead of burning retries.
        attempts = self.max_attempts if n >= 1.3 * self.k else 2
        for _ in range(attempts):
            graph = LTGraph(self.k)
            self._extend_uniform(graph, n, rng)
            decoder = PeelingDecoder(graph)
            for j in range(n):
                decoder.add(j)
                if decoder.is_complete:
                    break
            if decoder.is_complete:
                return graph
        # Constructive repair (needed at low redundancy, where random
        # regeneration essentially never yields a peelable graph): replace
        # a coded block that resolved nothing with a degree-1 copy of a
        # still-undecoded original, re-peel, repeat.  Each pass strictly
        # increases the decodable prefix, so it terminates within k passes.
        assert graph is not None
        for _ in range(self.k + 1):
            decoder = PeelingDecoder(graph)
            for j in range(n):
                decoder.add(j)
                if decoder.is_complete:
                    break
            if decoder.is_complete:
                return graph
            stuck = next(
                i for i in range(self.k) if not decoder.is_decoded(i)
            )
            replace_j = next(
                j for j in range(n) if j not in decoder.resolvers
            )
            graph.neighbors[replace_j] = np.array([stuck], dtype=np.int64)
        raise RuntimeError(
            f"graph repair failed for k={self.k}, n={n} (internal error)"
        )

    def extend_graph(self, graph: LTGraph, count: int, rng: np.random.Generator) -> None:
        self._extend_uniform(graph, count, rng)

    def _extend_uniform(self, graph: LTGraph, count: int, rng: np.random.Generator) -> None:
        """Append blocks choosing neighbours via a permutation stream.

        A fresh random permutation of the original blocks is consumed
        index-by-index; a new permutation is drawn whenever the previous one
        is exhausted, so original-block degrees differ by at most one
        (improvement 2 of §5.2.3).  Duplicates within one coded block (which
        can only occur across a permutation boundary) are skipped.
        """
        degrees = sample_degrees(self.distribution, count, rng)
        k = self.k
        stream = [int(x) for x in rng.permutation(k)]
        pos = 0
        for d in degrees:
            d = min(int(d), k)
            chosen: list[int] = []
            seen: set[int] = set()
            while len(chosen) < d:
                if pos >= len(stream):
                    stream = [int(x) for x in rng.permutation(k)]
                    pos = 0
                j = pos
                while j < len(stream) and stream[j] in seen:
                    j += 1
                if j == len(stream):
                    # Every pending index is already in this coded block:
                    # defer them behind a fresh permutation so each index is
                    # still consumed exactly once per permutation appearance.
                    stream = stream[pos:] + [int(x) for x in rng.permutation(k)]
                    pos = 0
                    continue
                # Swap the usable index to the front; skipped duplicates stay
                # pending and keep their turn.
                stream[pos], stream[j] = stream[j], stream[pos]
                idx = stream[pos]
                pos += 1
                seen.add(idx)
                chosen.append(idx)
            graph.neighbors.append(np.sort(np.array(chosen, dtype=np.int64)))
