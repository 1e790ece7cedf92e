"""Completion trackers: the stateful consumers behind every completion policy.

A tracker eats block arrivals in time order and reports when the access
can finish — replica coverage (RAID-0 at one copy, RRAID, RAID-0+1), LT
decode (RobuSTore), code-stripe fill (RobuSTore-RS words and regenerating
stripes) or parity-stripe reconstruction (RAID-5).  Trackers are
*per-access* mutable state; the stateless
:mod:`repro.core.policy.completion` policies build a fresh one for every
read, which is what keeps compositions trial-reentrant.
Both engines consume through the same trackers: the closed form feeds them
a sorted arrival vector, the event-driven engine feeds them one inbox
message at a time.

``observe(t, block_id)`` is the pipeline's only entry point: it defaults
to :meth:`add` and exists so trackers that care about *when* progress
happened (the stripe decode pipeline) can record it without the
consumption loop special-casing them.

:class:`DecodableCommit` is the writer-side twin: it consumes commit acks
in time order and reports when the speculative rateless write may cancel
(§5.2.3's decodability guarantee).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

#: Id offset distinguishing RAID-5 parity blocks from data blocks.
PARITY_BASE = 1 << 20


class CompletionTracker(Protocol):
    """Consumes block arrivals; reports when the access can finish."""

    def observe(self, t: float, block_id: int) -> None: ...

    @property
    def complete(self) -> bool: ...


class TrackerBase:
    """Shared ``observe`` hook: by default the arrival time is irrelevant."""

    def add(self, block_id: int) -> None:
        raise NotImplementedError

    def observe(self, t: float, block_id: int) -> None:
        self.add(block_id)

    @property
    def complete(self) -> bool:
        raise NotImplementedError


def _consume_batch(
    tracker, originals: np.ndarray, times: np.ndarray
) -> tuple[float, int]:
    """Vectorised equivalent of feeding ``originals`` one at a time.

    ``originals`` maps each arrival to the original-block slot it covers
    (``id % k`` for :class:`CoverageTracker`).  Finds the arrival at which
    the tracker's distinct-slot count reaches ``k``, updates
    ``_have``/``_count`` to exactly the state the scalar loop would leave
    (the loop stops at the completing arrival), and returns
    ``(t_fill, consumed)`` — ``(inf, len)`` when the batch never completes.
    """
    need = tracker.k - tracker._count
    if need <= 0:
        # Already complete before this batch.  The scalar loop still
        # consumes (and reports completion at) the first arrival — a
        # no-op for state, since every slot is already held.
        if originals.size == 0:
            return float("inf"), 0
        return float(times[0]), 1
    uniq, first = np.unique(originals, return_index=True)
    fresh = first[~tracker._have[uniq]]
    if fresh.size < need:
        tracker._have[uniq] = True
        tracker._count += int(fresh.size)
        return float("inf"), int(originals.size)
    # The need-th new slot (in arrival order) completes the access.
    stop = int(np.partition(fresh, need - 1)[need - 1])
    tracker._have[originals[: stop + 1]] = True
    tracker._count = tracker.k
    return float(times[stop]), stop + 1


class CoverageTracker(TrackerBase):
    """RRAID: at least one replica of every original block (id = r*K + i).

    At one replica (ids below K) this is RAID-0's rule: every block.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self._have = np.zeros(k, dtype=bool)
        self._count = 0

    def add(self, block_id: int) -> None:
        orig = block_id % self.k
        if not self._have[orig]:
            self._have[orig] = True
            self._count += 1

    def consume_arrivals(self, times: np.ndarray, ids: np.ndarray) -> tuple[float, int]:
        """Batched arrival consumption; see :func:`_consume_batch`."""
        return _consume_batch(self, ids % self.k, times)

    @property
    def complete(self) -> bool:
        return self._count >= self.k


class DecoderTracker(TrackerBase):
    """RobuSTore: the incremental LT peeling decoder."""

    def __init__(self, decoder) -> None:
        self.decoder = decoder

    def add(self, block_id: int) -> None:
        self.decoder.add(block_id)

    def consume_arrivals(self, times: np.ndarray, ids: np.ndarray) -> tuple[float, int]:
        """Batched arrival consumption: the scalar loop, fused in-tracker.

        The decoder does identical work either way; fusing skips one
        observe/complete dispatch pair per arrival and iterates native
        ints instead of numpy scalars.  Same ``(t_fill, consumed)``
        contract as :func:`_consume_batch`.
        """
        decoder = self.decoder
        add = decoder.add
        for consumed, bid in enumerate(ids.tolist(), start=1):
            add(bid)
            if decoder.is_complete:
                return float(times[consumed - 1]), consumed
        return float("inf"), int(ids.size)

    @property
    def complete(self) -> bool:
        return self.decoder.is_complete


class StripeTracker(TrackerBase):
    """Code stripes: every stripe needs ``k`` *complete* nodes.

    Block id ``(stripe << 20) | (node * alpha + sub)``; a node counts only
    once all ``alpha`` of its coded blocks arrived (the product-matrix
    decoder consumes whole node vectors), and a stripe fills at ``k``
    complete nodes.  A grouped Reed-Solomon word is the ``alpha = 1``
    case: a group fills at ``k`` distinct blocks.  ``observe`` additionally
    records *when* each stripe filled (``fill_times``), which the stripe
    completion policy turns into the pipelined per-stripe decode schedule.
    """

    def __init__(self, n_stripes: int, nodes: int, k: int, alpha: int, d: int) -> None:
        self.n_stripes = n_stripes
        self.nodes = nodes
        self.k = k
        self.alpha = alpha
        self.d = d
        self._seen: set[int] = set()
        self._sub_counts = np.zeros((n_stripes, nodes), dtype=np.int64)
        self._nodes_done = np.zeros(n_stripes, dtype=np.int64)
        self._filled = 0
        self.fill_times: list[float] = []

    def add(self, block_id: int) -> None:
        if block_id in self._seen:
            return
        self._seen.add(block_id)
        s = block_id >> 20
        node = (block_id & 0xFFFFF) // self.alpha
        self._sub_counts[s, node] += 1
        if self._sub_counts[s, node] == self.alpha:
            if self._nodes_done[s] < self.k:
                self._nodes_done[s] += 1
                if self._nodes_done[s] == self.k:
                    self._filled += 1

    def observe(self, t: float, block_id: int) -> None:
        before = self._filled
        self.add(block_id)
        if self._filled > before:
            self.fill_times.extend([t] * (self._filled - before))

    @property
    def complete(self) -> bool:
        return self._filled >= self.n_stripes


class ParityStripeTracker(TrackerBase):
    """RAID-5: data blocks arrive directly or via stripe reconstruction."""

    def __init__(self, k: int, stripes: list, failed_pos) -> None:
        self.k = k
        self._have = np.zeros(k, dtype=bool)
        self._count = 0
        self._failed_pos = failed_pos
        # For each stripe with a lost block: remaining pieces to XOR.
        self._stripe_need: dict[int, set] = {}
        self._lost_block: dict[int, int] = {}
        if failed_pos is not None:
            for stripe in stripes:
                lost = [b for b, d in stripe["data"] if d == failed_pos]
                if lost:
                    sid = stripe["id"]
                    self._lost_block[sid] = lost[0]
                    self._stripe_need[sid] = {
                        b for b, d in stripe["data"] if d != failed_pos
                    } | {PARITY_BASE + sid}
        self._by_member: dict[int, list[int]] = {}
        for sid, members in self._stripe_need.items():
            for m in members:
                self._by_member.setdefault(m, []).append(sid)

    def add(self, block_id: int) -> None:
        if block_id < PARITY_BASE and not self._have[block_id]:
            self._have[block_id] = True
            self._count += 1
        for sid in self._by_member.get(block_id, []):
            need = self._stripe_need.get(sid)
            if need is None:
                continue
            need.discard(block_id)
            if not need:
                del self._stripe_need[sid]
                lost = self._lost_block[sid]
                if not self._have[lost]:
                    self._have[lost] = True
                    self._count += 1

    @property
    def complete(self) -> bool:
        return self._count >= self.k


class DecodableCommit:
    """Writer-side stop rule for the speculative rateless write (§5.2.3).

    Feed commit acks in time order via :meth:`add`; the first ack at which
    at least ``target`` blocks have committed *and* the committed set peels
    returns its timestamp (``t_enough``) — ``None`` until then.  Shared by
    the closed-form and event-driven write paths so the stop rule exists
    exactly once.
    """

    def __init__(self, decoder, target: int) -> None:
        self.decoder = decoder
        self.target = target
        self.count = 0

    def add(self, t: float, block_id: int) -> float | None:
        self.decoder.add(int(block_id))
        self.count += 1
        if self.count >= self.target and self.decoder.is_complete:
            return float(t)
        return None
