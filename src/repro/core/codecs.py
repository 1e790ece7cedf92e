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


class ReplicaCodec:
    """RAID-0 / RRAID-S / RRAID-A / RAID-0+1: id = r*k + i carries block i.

    RAID-0 stores one replica: id i is block i, no transform.
    """

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


class _RSWord(ReedSolomonCode):
    """A Reed-Solomon word as a stripe code: nodes of ``alpha = 1`` block."""

    def encode(self, message):
        return super().encode(message)[:, None]

    def decode(self, node_ids, contents):
        return super().decode(node_ids, contents[:, 0])


class StripeCodec:
    """Code stripes: encode per stripe, decode each from any k nodes.

    Id ``(stripe << 20) | (node * alpha + sub)``; decode gathers the first
    k nodes per stripe whose ``alpha`` coded blocks all arrived (the
    timing tracker's completion rule, replayed on real bytes).  RobuSTore-RS
    words are Reed-Solomon stripes at ``alpha = 1``; the regenerating
    layouts are product-matrix stripes.
    """

    def _code(self, record):
        c = record.coding
        if c["algorithm"] == "reed-solomon":
            return _RSWord(c["k"], c["nodes"]), c
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
    "raid0": ReplicaCodec(),
    "rraid-s": ReplicaCodec(),
    "rraid-a": ReplicaCodec(),
    "raid0+1": ReplicaCodec(),
    "robustore": LTCodec(),
    "robustore-rs": StripeCodec(),
    # Cross-product compositions share the codec of their placement layer.
    "lt+adaptive": LTCodec(),
    "mirror+adaptive": ReplicaCodec(),
    "rs+adaptive": StripeCodec(),
    "regen-msr": StripeCodec(),
    "regen-mbr": StripeCodec(),
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
