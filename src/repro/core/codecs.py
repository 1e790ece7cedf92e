"""Data-path codecs: per-scheme real encode/decode for the file API.

Each codec turns K original data blocks into the coded payloads a scheme
stores (keyed by coded-block id) and reconstructs the originals from the
payloads that *actually arrived first* in the timing simulation — so a
successful read proves the scheme's redundancy semantics on real bytes.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.accesscore.result import AccessConfig
from repro.cluster.metadata import FileRecord
from repro.coding.peeling import PeelingDecoder
from repro.coding.reed_solomon import ReedSolomonCode
from repro.coding.regenerating import product_matrix_code
from repro.coding.xorblocks import xor_reduce


class Codec(Protocol):
    """Scheme-specific payload transform."""

    def encode(self, blocks: np.ndarray, record: FileRecord, cfg: AccessConfig) -> dict[int, np.ndarray]:
        """Map original blocks to {coded id: payload} for every stored id."""
        ...

    def decode(
        self,
        arrival_order: list[int],
        payloads: dict[int, np.ndarray],
        record: FileRecord,
        cfg: AccessConfig,
    ) -> np.ndarray:
        """Reconstruct the K original blocks from first arrivals."""
        ...


class PlainCodec:
    """RAID-0: block id == original index, no transform."""

    def encode(self, blocks, record, cfg):
        return {int(b): blocks[int(b)] for p in record.placement for b in p}

    def decode(self, arrival_order, payloads, record, cfg):
        out = np.zeros((cfg.k, cfg.block_bytes), dtype=np.uint8)
        have = np.zeros(cfg.k, dtype=bool)
        for bid in arrival_order:
            if bid < cfg.k and not have[bid]:
                out[bid] = payloads[bid]
                have[bid] = True
        if not have.all():
            raise ValueError(f"{int((~have).sum())} blocks never arrived")
        return out


class ReplicaCodec:
    """RRAID-S / RRAID-A / RAID-0+1: id = r*k + i carries block i."""

    def encode(self, blocks, record, cfg):
        k = cfg.k
        return {int(b): blocks[int(b) % k] for p in record.placement for b in p}

    def decode(self, arrival_order, payloads, record, cfg):
        out = np.zeros((cfg.k, cfg.block_bytes), dtype=np.uint8)
        have = np.zeros(cfg.k, dtype=bool)
        for bid in arrival_order:
            orig = bid % cfg.k
            if not have[orig]:
                out[orig] = payloads[bid]
                have[orig] = True
        if not have.all():
            raise ValueError(f"{int((~have).sum())} originals uncovered")
        return out


class LTCodec:
    """RobuSTore: LT encode against the record's graph, peel to decode."""

    def encode(self, blocks, record, cfg):
        graph = record.extra["graph"]
        return {
            int(b): xor_reduce(blocks, graph.neighbors[b])
            for p in record.placement
            for b in p
        }

    def decode(self, arrival_order, payloads, record, cfg):
        graph = record.extra["graph"]
        decoder = PeelingDecoder(graph, block_len=cfg.block_bytes)
        for bid in arrival_order:
            decoder.add(int(bid), payloads[int(bid)])
            if decoder.is_complete:
                break
        return decoder.get_data()


class RSGroupCodec:
    """RobuSTore-RS: per-group Reed-Solomon words, id = (g << 20) | j."""

    def _codes(self, record, cfg):
        group = record.coding["group"]
        coded = record.coding["coded_per_group"]
        return group, coded, ReedSolomonCode(group, coded)

    def encode(self, blocks, record, cfg):
        group, coded, code = self._codes(record, cfg)
        out = {}
        for g in range(record.coding["groups"]):
            seg = blocks[g * group : (g + 1) * group]
            if seg.shape[0] < group:
                pad = np.zeros((group - seg.shape[0], blocks.shape[1]), np.uint8)
                seg = np.vstack([seg, pad])
            coded_blocks = code.encode(seg)
            for j in range(coded):
                out[(g << 20) | j] = coded_blocks[j]
        return {bid: out[bid] for p in record.placement for bid in p}

    def decode(self, arrival_order, payloads, record, cfg):
        group, _, code = self._codes(record, cfg)
        n_groups = record.coding["groups"]
        by_group: dict[int, list[int]] = {g: [] for g in range(n_groups)}
        for bid in arrival_order:
            g = bid >> 20
            if len(by_group[g]) < group:
                by_group[g].append(bid)
        short = [g for g, ids in by_group.items() if len(ids) < group]
        if short:
            raise ValueError(f"group {short[0]} never filled")

        out = np.zeros((cfg.k, cfg.block_bytes), dtype=np.uint8)
        for g, ids in by_group.items():
            local = [bid & 0xFFFFF for bid in ids]
            decoded = code.decode(local, np.stack([payloads[b] for b in ids]))
            lo = g * group
            hi = min(cfg.k, lo + group)
            out[lo:hi] = decoded[: hi - lo]
        return out


class RegenCodec:
    """Regenerating stripes: product-matrix encode, decode from any k nodes.

    Id ``(stripe << 20) | (node * alpha + sub)``; decode gathers the first
    k nodes per stripe whose ``alpha`` coded blocks all arrived (the
    timing tracker's completion rule, replayed on real bytes).
    """

    def _code(self, record):
        c = record.coding
        return product_matrix_code(c["mode"], c["k"], c["d"], c["nodes"]), c

    def encode(self, blocks, record, cfg):
        code, c = self._code(record)
        B, alpha = c["stripe_symbols"], c["alpha"]
        out = {}
        for s in range(c["stripes"]):
            seg = blocks[s * B : (s + 1) * B]
            if seg.shape[0] < B:
                pad = np.zeros((B - seg.shape[0], blocks.shape[1]), np.uint8)
                seg = np.vstack([seg, pad])
            enc = code.encode(seg)  # (n, alpha, L)
            for j in range(c["nodes"]):
                for a in range(alpha):
                    out[(s << 20) | (j * alpha + a)] = enc[j, a]
        return {bid: out[bid] for p in record.placement for bid in p}

    def decode(self, arrival_order, payloads, record, cfg):
        code, c = self._code(record)
        B, alpha, k = c["stripe_symbols"], c["alpha"], c["k"]
        n_stripes = c["stripes"]
        # First k nodes per stripe with all alpha sub-blocks arrived.
        subs: dict[tuple[int, int], set[int]] = {}
        chosen: dict[int, list[int]] = {s: [] for s in range(n_stripes)}
        for bid in arrival_order:
            s, local = bid >> 20, bid & 0xFFFFF
            node = local // alpha
            if len(chosen[s]) >= k or node in chosen[s]:
                continue
            got = subs.setdefault((s, node), set())
            got.add(local % alpha)
            if len(got) == alpha:
                chosen[s].append(node)
        short = [s for s, nodes in chosen.items() if len(nodes) < k]
        if short:
            raise ValueError(f"stripe {short[0]} never completed k nodes")

        out = np.zeros((cfg.k, cfg.block_bytes), dtype=np.uint8)
        for s, nodes in chosen.items():
            contents = np.stack(
                [
                    np.stack(
                        [payloads[(s << 20) | (j * alpha + a)] for a in range(alpha)]
                    )
                    for j in nodes
                ]
            )
            dec = code.decode(nodes, contents)  # (B, L)
            lo = s * B
            hi = min(cfg.k, lo + B)
            out[lo:hi] = dec[: hi - lo]
        return out


CODECS: dict[str, Codec] = {
    "raid0": PlainCodec(),
    "rraid-s": ReplicaCodec(),
    "rraid-a": ReplicaCodec(),
    "raid0+1": ReplicaCodec(),
    "robustore": LTCodec(),
    "robustore-rs": RSGroupCodec(),
    # Cross-product compositions share the codec of their placement layer.
    "lt+adaptive": LTCodec(),
    "mirror+adaptive": ReplicaCodec(),
    "rs+adaptive": RSGroupCodec(),
    "regen-msr": RegenCodec(),
    "regen-mbr": RegenCodec(),
}


def codec_for(scheme_name: str) -> Codec:
    """The data-path codec matching a scheme name.

    Raises
    ------
    KeyError
        For schemes without a data path (e.g. RAID-5's parity XOR is not
        wired into the file API).
    """
    return CODECS[scheme_name]
