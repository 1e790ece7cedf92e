"""Virtual filer: network latency + filesystem cache in front of disks.

§6.2.2: "The virtual filer ... models the network latency between client
and server, and maintains the filesystem cache.  ...  the latency is
applied per data request instead of per data access. ...  If the data are
in-cache, the filer directly sends the data to the client at a rate decided
by the maximum network speed; if the data is not in cache or is only partly
in cache, the filer requests the missing data blocks from the corresponding
virtual disks."

Writes are write-through (§6.2.5): they populate the cache and always reach
the disk.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.fscache import SetAssociativeCache
from repro.net.link import Link
from repro.obs.tracer import NULL_TRACER


class Filer:
    """One storage server front-end.

    Parameters
    ----------
    filer_id:
        Index in the cluster.
    disk_ids:
        The (eight, typically) disks attached to this filer.
    link:
        Client link (fixed RTT, plentiful bandwidth).
    cache:
        Shared filesystem cache; ``None`` disables caching.
    tracer:
        Optional :class:`repro.obs.Tracer`; the filer counts filesystem
        cache hits/misses and disk traffic through it.
    """

    def __init__(
        self,
        filer_id: int,
        disk_ids: list[int],
        link: Link,
        cache: SetAssociativeCache | None = None,
        tracer=None,
    ) -> None:
        self.filer_id = filer_id
        self.disk_ids = list(disk_ids)
        self.link = link
        self.cache = cache
        self.disk_bytes_read = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Lines :meth:`age_cache` has pushed through the cache so far.
        self._age_counter = 0

    # -- cache interface (block granularity) -----------------------------------
    def cached_blocks(self, file_name: str, block_ids) -> np.ndarray:
        """Boolean mask: which of the requested blocks are fully cached.

        Probes without disturbing LRU order (the actual access happens in
        :meth:`read_access` / :meth:`write_access`).
        """
        if self.cache is None:
            mask = np.zeros(len(block_ids), dtype=bool)
        else:
            mask = np.array(
                [self.cache.contains_line((file_name, int(b))) for b in block_ids],
                dtype=bool,
            )
        if self.tracer.enabled and mask.size:
            hits = int(np.count_nonzero(mask))
            self.tracer.count("filer.fscache_hits", hits)
            self.tracer.count("filer.fscache_misses", int(mask.size) - hits)
        return mask

    def record_read(self, file_name: str, block_ids, block_bytes: int) -> None:
        """Blocks served from disk enter the cache; hits refresh LRU."""
        before = self.disk_bytes_read
        if self.cache is None:
            self.disk_bytes_read += len(block_ids) * block_bytes
        else:
            for b in block_ids:
                key = (file_name, int(b))
                if not self.cache.lookup_line(key):
                    self.disk_bytes_read += block_bytes
                    self.cache.insert_line(key)
        if self.tracer.enabled:
            self.tracer.count("filer.bytes_from_disk", self.disk_bytes_read - before)

    def record_write(self, file_name: str, block_ids, block_bytes: int) -> None:
        """Write-through: populate the cache, all bytes hit the disk."""
        if self.cache is not None:
            for b in block_ids:
                self.cache.insert_line((file_name, int(b)))

    def age_cache(self, nbytes: int) -> None:
        """Competing traffic pushes ``nbytes`` of other data through the
        cache, evicting part of whatever was resident (§6.3.3: the 2 GB
        cache is shared by all accesses to the filer's eight disks)."""
        if self.cache is None or nbytes <= 0:
            return
        first = self._age_counter + 1
        self._age_counter += int(nbytes // self.cache.line_bytes)
        self.cache.insert_fresh("__aging__", range(first, self._age_counter + 1))
