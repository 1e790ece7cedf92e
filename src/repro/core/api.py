"""Client-facing file API (§4.3.1): open / write / read / close.

This facade couples two things the rest of the package keeps separate:

* **real data movement** — bytes are encoded by the scheme's codec
  (LT graph, replication with RAID-0 as one copy, code stripes), coded
  payloads live in per-file in-memory stores, and reads reconstruct the
  data from the payloads **in the arrival order the timing simulation
  produced**;
* **simulated timing** — the same access runs through the scheme's
  speculative-access engine, yielding latency / bandwidth / I/O-overhead
  numbers.

So a successful :meth:`FileHandle.read` proves both data integrity
(byte-exact round trip through encode -> placement -> partial,
out-of-order retrieval -> decode) and gives the performance a real client
would have observed.  Any scheme in :data:`repro.core.codecs.CODECS`
works; ``robustore`` is the default.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.accesscore.result import AccessConfig, AccessResult
from repro.accesscore.routing import MB
from repro.cluster.metadata import MetadataServer
from repro.cluster.server import Cluster
from repro.coding.xorblocks import join_blocks, split_into_blocks, xor_reduce
from repro.core.codecs import LTCodec, codec_for
from repro.core.pipeline import scheme_class
from repro.core.qos import QoSOptions, plan_access
from repro.sim.rng import RngHub


@dataclass
class _StoredFile:
    payloads: dict[int, np.ndarray]
    data_len: int


class StorageClient:
    """A storage client bound to one cluster and one scheme.

    Parameters
    ----------
    scheme:
        Scheme name (see module docstring); RobuSTore by default.
    cluster:
        Storage cluster; a default 128-disk pool is created if omitted.
    config:
        Access parameters; QoS options at :meth:`open` may adjust them.
    seed:
        Root of all randomness (fully reproducible).
    """

    def __init__(
        self,
        scheme: str = "robustore",
        cluster: Cluster | None = None,
        config: AccessConfig | None = None,
        seed: int = 0,
    ) -> None:
        try:
            self.codec = codec_for(scheme)
        except KeyError:
            raise ValueError(
                f"scheme {scheme!r} has no data-path codec; pick one of "
                "raid0, rraid-s, rraid-a, raid0+1, robustore, robustore-rs "
                "or a composed scheme sharing their placements"
            ) from None
        self.scheme_name = scheme
        self._scheme_cls = scheme_class(scheme)
        self.cluster = cluster or Cluster(n_disks=128)
        self.config = config or AccessConfig(data_bytes=64 * MB, n_disks=16)
        self.hub = RngHub(seed)
        self.metadata = MetadataServer()
        self._stores: dict[str, _StoredFile] = {}
        self._trial = 0

    # -- §4.3.1 interface -------------------------------------------------------
    def open(self, file_name: str, mode: str, qos: QoSOptions | None = None) -> "FileHandle":
        """Open a file; returns a handle carrying the planned access config."""
        cfg = self.config
        if qos is not None:
            cfg = plan_access(cfg, qos)
        record, _ = self.metadata.open(file_name, mode)
        return FileHandle(self, file_name, mode, cfg, record)

    # -- internals shared with FileHandle ------------------------------------------
    def _next_trial(self) -> int:
        self._trial += 1
        return self._trial

    def _scheme(self, cfg: AccessConfig):
        return self._scheme_cls(
            self.cluster, cfg, hub=self.hub, metadata=self.metadata
        )


class FileHandle:
    """An open file (returned by :meth:`StorageClient.open`)."""

    def __init__(self, client, file_name, mode, cfg, record) -> None:
        self.client = client
        self.file_name = file_name
        self.mode = mode
        self.cfg = cfg
        self.record = record
        self.closed = False

    # -- write --------------------------------------------------------------------
    def write(self, data: bytes) -> AccessResult:
        """Encode ``data``, simulate the write, store real payloads."""
        if self.mode != "w":
            raise PermissionError("file not opened for writing")
        if self.closed:
            raise ValueError("I/O on closed file")
        cfg = self._size_config(len(data))
        scheme = self.client._scheme(cfg)
        trial = self.client._next_trial()
        self.client.cluster.redraw_disk_states(self.client.hub.fresh("env", trial))
        result = scheme.write(self.file_name, trial)

        record = self.client.metadata.lookup(self.file_name)
        blocks = split_into_blocks(data, cfg.block_bytes)
        if blocks.shape[0] != cfg.k:  # pad to the configured word length
            pad = np.zeros((cfg.k - blocks.shape[0], cfg.block_bytes), np.uint8)
            blocks = np.vstack([blocks, pad])
        payloads = self.client.codec.encode(blocks, record, cfg)
        self.client._stores[self.file_name] = _StoredFile(payloads, len(data))
        self.record = record
        return result

    # -- read ----------------------------------------------------------------------
    def read(self) -> tuple[bytes, AccessResult]:
        """Speculative read: returns (reconstructed bytes, access metrics)."""
        if self.mode != "r":
            raise PermissionError("file not opened for reading")
        if self.closed:
            raise ValueError("I/O on closed file")
        record = self.client.metadata.lookup(self.file_name)
        stored = self.client._stores[self.file_name]
        cfg = self._size_config(stored.data_len)
        scheme = self.client._scheme(cfg)
        trial = self.client._next_trial()
        self.client.cluster.redraw_disk_states(self.client.hub.fresh("env", trial))
        result = scheme.read(self.file_name, trial)
        if not np.isfinite(result.latency_s):
            raise IOError(f"read of {self.file_name!r} never completes")

        blocks = self.client.codec.decode(
            result.extra["arrival_order"], stored.payloads, record, cfg
        )
        data = join_blocks(blocks[: cfg.k], total_len=stored.data_len)
        return data, result

    # -- update (§4.3.4) -------------------------------------------------------------
    def update(self, block_index: int, new_block: bytes) -> AccessResult:
        """Replace one original block; rewrite only the coded blocks it
        touches (LT-coded schemes only — near-optimal codes localise
        updates).

        The stored payloads are regenerated for the affected coded blocks,
        so a subsequent :meth:`read` returns the updated bytes.
        """
        if self.mode != "w":
            raise PermissionError("file not opened for writing")
        if not isinstance(self.client.codec, LTCodec):
            raise NotImplementedError(
                "in-place update is implemented for the LT codec only"
            )
        from repro.core.update import update_access

        stored = self.client._stores[self.file_name]
        record = self.client.metadata.lookup(self.file_name)
        cfg = self._size_config(stored.data_len)
        if not 0 <= block_index < cfg.k:
            raise IndexError(f"block {block_index} out of range (k={cfg.k})")
        if len(new_block) > cfg.block_bytes:
            raise ValueError("replacement exceeds the block size")

        # Current originals (decode everything from the stored payloads).
        order = [b for p in record.placement for b in p]
        blocks = self.client.codec.decode(order, stored.payloads, record, cfg)
        padded = np.zeros(cfg.block_bytes, dtype=np.uint8)
        padded[: len(new_block)] = np.frombuffer(new_block, dtype=np.uint8)
        blocks[block_index] = padded

        # Regenerate only the adjacent coded blocks (§4.3.4).
        graph = record.extra["graph"]
        affected = set(graph.affected_coded_blocks(block_index))
        stored_ids = {b for p in record.placement for b in p}
        for coded_id in affected & stored_ids:
            stored.payloads[coded_id] = xor_reduce(blocks, graph.neighbors[coded_id])

        # Simulated timing of the partial rewrite.
        scheme = self.client._scheme(cfg)
        trial = self.client._next_trial()
        self.client.cluster.redraw_disk_states(self.client.hub.fresh("env", trial))
        return update_access(scheme, self.file_name, [block_index], trial)

    def close(self) -> None:
        """Release locks (metadata registration happened at write time)."""
        if not self.closed:
            self.client.metadata.close(self.file_name)
            self.closed = True

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- helpers -----------------------------------------------------------------------
    def _size_config(self, data_len: int) -> AccessConfig:
        blocks = max(1, -(-data_len // self.cfg.block_bytes))
        return replace(self.cfg, data_bytes=blocks * self.cfg.block_bytes)
