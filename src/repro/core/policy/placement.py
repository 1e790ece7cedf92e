"""Placement policies: stripe, mirrors, parity stripes, LT, grouped RS.

Each policy turns (config, #disks, trial) into a :class:`PlacementSpec`
— the per-disk stored queues plus the coding descriptor and record extras
(LT graph, parity stripe map) the read path later needs.  For the
adaptive dispatcher, :meth:`~PlacementPolicy.adaptive_units` exposes the
layout as requestable *units* and their holder disks.
"""

from __future__ import annotations

import numpy as np

from repro.accesscore.trackers import PARITY_BASE
from repro.coding.lt import ImprovedLTCode, LTGraph
from repro.core import layout as L
from repro.core.policy.base import PlacementSpec
from repro.sim.rng import stable_seed

#: Distinct LT graphs rotated across trials, mimicking per-simulation graph
#: regeneration at bounded cost.
GRAPH_POOL_SIZE = 4

_GRAPH_POOL: dict[tuple, list[LTGraph]] = {}

#: Measured GF(256) RS decode bandwidth by word length on this class of
#: host (see Table 5-1 bench); interpolated linearly in 1/K.
RS_DECODE_MBPS = {4: 100.0, 8: 43.0, 16: 26.0, 32: 13.0, 64: 6.5, 128: 3.2}


def pooled_graph(
    k: int,
    n: int,
    c: float,
    delta: float,
    trial: int,
    pool_size: int = GRAPH_POOL_SIZE,
    checked: bool = True,
) -> LTGraph:
    """An LT graph for (k, n), rotated by trial.

    ``checked=True`` enforces the §5.2.3 decodability guarantee over the
    full block set (what a balanced write stores).  Speculative writes use
    ``checked=False`` — their much larger rateless margins would make the
    full-set check needlessly expensive, and the writer gates completion
    on the *committed* set decoding anyway.
    """
    key = (k, n, round(c, 6), round(delta, 6), checked)
    graphs = _GRAPH_POOL.setdefault(key, [])
    idx = trial % pool_size
    while len(graphs) <= idx:
        code = ImprovedLTCode(k, c=c, delta=delta)
        rng = np.random.default_rng(stable_seed("graph-pool", *key, len(graphs)))
        if checked:
            graphs.append(code.build_graph(n, rng))
        else:
            graph = LTGraph(k)
            code.extend_graph(graph, n, rng)
            graphs.append(graph)
    return graphs[idx]


def rs_decode_bandwidth_bps(group: int) -> float:
    """Approximate RS decode bandwidth for a given word length."""
    ks = sorted(RS_DECODE_MBPS)
    if group <= ks[0]:
        return RS_DECODE_MBPS[ks[0]] * (1 << 20)
    if group >= ks[-1]:
        # Quadratic cost: bandwidth ~ 1/K beyond the table.
        return RS_DECODE_MBPS[ks[-1]] * ks[-1] / group * (1 << 20)
    for lo, hi in zip(ks, ks[1:]):
        if lo <= group <= hi:
            f = (group - lo) / (hi - lo)
            return ((1 - f) * RS_DECODE_MBPS[lo] + f * RS_DECODE_MBPS[hi]) * (1 << 20)
    raise AssertionError("unreachable")


def lt_coding(cfg) -> dict:
    """The FileRecord coding descriptor for the LT code."""
    return {
        "algorithm": "lt",
        "k": cfg.k,
        "n": cfg.n_coded,
        "c": cfg.lt_c,
        "delta": cfg.lt_delta,
    }


class _PlacementBase:
    """Default adaptive view: stored ids are the units, one holder each."""

    def adaptive_units(self, cfg, record):
        primaries: list[list[int]] = []
        holders: dict[int, set[int]] = {}
        for idx, stored in enumerate(record.placement):
            primaries.append([int(b) for b in stored])
            for b in stored:
                holders.setdefault(int(b), set()).add(idx)
        return primaries, holders


class StripedPlacement(_PlacementBase):
    """RAID-0: block i on disk i mod H, no redundancy."""

    def plan(self, cfg, n_disks, trial):
        return PlacementSpec(L.striped(cfg.k, n_disks), {"algorithm": "none"})


class RotatedReplicaPlacement(_PlacementBase):
    """RRAID: replica r of block i on disk (i + r) mod H, id r*K + i."""

    def plan(self, cfg, n_disks, trial):
        return PlacementSpec(
            L.rotated_replicas_fractional(cfg.k, cfg.redundancy, n_disks),
            {"algorithm": "replication", "replicas": cfg.replicas},
        )

    def adaptive_units(self, cfg, record):
        # Units are original blocks; any replica holder can serve them.
        # Round 1 requests each block's replica-0 home disk (i mod H).
        k = cfg.k
        h = len(record.placement)
        holders: dict[int, set[int]] = {}
        for idx, stored in enumerate(record.placement):
            for coded_id in stored:
                holders.setdefault(int(coded_id) % k, set()).add(idx)
        primaries = [[b for b in range(k) if b % h == idx] for idx in range(h)]
        return primaries, holders


class MirroredStripePlacement(_PlacementBase):
    """RAID-0+1: two disk halves, each a full stripe; ids i and K + i."""

    def plan(self, cfg, n_disks, trial):
        k = cfg.k
        if n_disks < 2:
            raise ValueError("RAID-0+1 needs at least two disks")
        half = n_disks // 2
        placement = [[] for _ in range(n_disks)]
        for i in range(k):
            placement[i % half].append(i)            # mirror set A: ids 0..k-1
            placement[half + i % half].append(k + i)  # mirror set B: ids k..2k-1
        return PlacementSpec(
            placement, {"algorithm": "mirrored-striping", "replicas": 2}
        )

    def adaptive_units(self, cfg, record):
        # Units are original blocks, held by one disk in each mirror half;
        # round 1 requests the set-A copies, so set-B disks start idle and
        # immediately steal from their struggling mirror partners.
        k = cfg.k
        h = len(record.placement)
        half = h // 2
        holders: dict[int, set[int]] = {}
        for idx, stored in enumerate(record.placement):
            for coded_id in stored:
                holders.setdefault(int(coded_id) % k, set()).add(idx)
        primaries = [
            [b for b in range(k) if b % half == idx] if idx < half else []
            for idx in range(h)
        ]
        return primaries, holders


class ParityStripePlacement(_PlacementBase):
    """RAID-5: (H-1)-block stripes with one rotating parity block each."""

    @staticmethod
    def layout(k: int, h: int):
        """Return (placement incl. parity, stripes).

        Stripe ``s`` holds data blocks ``s*(H-1) .. s*(H-1)+H-2`` and one
        parity block (id ``PARITY_BASE + s``) on disk ``H-1 - (s mod H)``.
        """
        if h < 2:
            raise ValueError("RAID-5 needs at least two disks")
        per_stripe = h - 1
        n_stripes = -(-k // per_stripe)
        placement = [[] for _ in range(h)]
        stripes = []
        for s in range(n_stripes):
            parity_disk = h - 1 - (s % h)
            data = list(range(s * per_stripe, min(k, (s + 1) * per_stripe)))
            members = []
            d = 0
            for b in data:
                if d == parity_disk:
                    d += 1
                placement[d % h].append(b)
                members.append((b, d % h))
                d += 1
            placement[parity_disk].append(PARITY_BASE + s)
            stripes.append({"data": members, "parity_disk": parity_disk, "id": s})
        return placement, stripes

    def plan(self, cfg, n_disks, trial):
        placement, stripes = self.layout(cfg.k, n_disks)
        return PlacementSpec(
            placement,
            {"algorithm": "parity", "stripes": len(stripes)},
            {"stripes": stripes},
        )


class RatelessCodedPlacement(_PlacementBase):
    """RobuSTore: N LT-coded blocks balanced over the disks."""

    def plan(self, cfg, n_disks, trial):
        graph = pooled_graph(cfg.k, cfg.n_coded, cfg.lt_c, cfg.lt_delta, trial)
        return PlacementSpec(
            L.coded_balanced(cfg.n_coded, n_disks), lt_coding(cfg), {"graph": graph}
        )


class RegeneratingPlacement(_PlacementBase):
    """Product-matrix regenerating stripes: whole nodes on single disks.

    The file is cut into stripes of ``B`` original blocks; each stripe is
    encoded by the exact product-matrix code into ``n`` *nodes* of
    ``alpha`` coded blocks, and a node's blocks land together on one disk
    (block id ``(stripe << 20) | (node * alpha + sub)``) — so a disk
    failure is a node failure, repairable from ``d`` helper nodes at
    ``d * beta`` blocks instead of a whole-stripe read.  The per-stripe
    geometry is fixed (class attributes); ``cfg.redundancy`` sets the node
    count so the storage overhead matches the other coded schemes.
    """

    #: Originals recoverable from any K_G nodes of a stripe.
    K_G = 3
    #: Helpers contacted per node repair.
    D_G = 4

    mode: str
    alpha: int
    stripe_symbols: int

    def nodes_per_stripe(self, cfg) -> int:
        """Node count matching ``1 + cfg.redundancy`` storage overhead."""
        want = self.stripe_symbols * (1.0 + cfg.redundancy) / self.alpha
        return max(self.D_G + 1, min(255, int(round(want))))

    def coding(self, cfg) -> dict:
        n = self.nodes_per_stripe(cfg)
        return {
            "algorithm": f"regenerating-{self.mode}",
            "mode": self.mode,
            "nodes": n,
            "k": self.K_G,
            "d": self.D_G,
            "alpha": self.alpha,
            "stripe_symbols": self.stripe_symbols,
            "stripes": -(-cfg.k // self.stripe_symbols),
        }

    def plan(self, cfg, n_disks, trial):
        coding = self.coding(cfg)
        n, alpha = coding["nodes"], coding["alpha"]
        placement = [[] for _ in range(n_disks)]
        for s in range(coding["stripes"]):
            for j in range(n):
                disk = (s * n + j) % n_disks
                for a in range(alpha):
                    placement[disk].append((s << 20) | (j * alpha + a))
        return PlacementSpec(placement, coding)


class RegeneratingMSRPlacement(RegeneratingPlacement):
    """MSR point at d = 2k-2: per-node storage equals the MDS optimum."""

    mode = "msr"
    alpha = RegeneratingPlacement.K_G - 1            # = 2
    stripe_symbols = RegeneratingPlacement.K_G * (RegeneratingPlacement.K_G - 1)  # = 6


class RegeneratingMBRPlacement(RegeneratingPlacement):
    """MBR point: repair moves exactly what the lost node stored."""

    mode = "mbr"
    alpha = RegeneratingPlacement.D_G                # = 4
    stripe_symbols = (
        RegeneratingPlacement.K_G * RegeneratingPlacement.D_G
        - RegeneratingPlacement.K_G * (RegeneratingPlacement.K_G - 1) // 2
    )  # = 9


class GroupedRSPlacement(_PlacementBase):
    """RobuSTore-RS: per-group RS words interleaved across all disks."""

    #: Originals per RS word (<= 128 keeps N <= 256 at 1x redundancy).
    GROUP = 32

    def grouping(self, cfg):
        group = min(self.GROUP, cfg.k)
        n_groups = -(-cfg.k // group)
        coded_per_group = max(
            group, int(round(group * (1.0 + cfg.redundancy)))
        )
        coded_per_group = min(coded_per_group, 256)
        return group, n_groups, coded_per_group

    def coding(self, cfg) -> dict:
        group, n_groups, coded_per_group = self.grouping(cfg)
        return {
            "algorithm": "reed-solomon",
            "group": group,
            "groups": n_groups,
            "coded_per_group": coded_per_group,
        }

    def plan(self, cfg, n_disks, trial):
        group, n_groups, coded_per_group = self.grouping(cfg)
        ids = [
            (g << 20) | j for j in range(coded_per_group) for g in range(n_groups)
        ]
        placement = [[] for _ in range(n_disks)]
        for pos, bid in enumerate(ids):
            placement[pos % n_disks].append(bid)
        return PlacementSpec(placement, self.coding(cfg))
