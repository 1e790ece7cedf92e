"""Content-addressed result store (``.repro-cache/``).

Each entry is one JSON file named by the job's content hash, holding the
canonical payload next to the canonical results, so an entry is
self-describing: ``python -m repro.exec stats`` can say what is cached
without any side index, and GC can tell live entries from ones written
under an older code-version salt.

Entries contain **only deterministic content** (payload + results — no
timestamps, no hostnames, no PIDs; SIM001 enforces this in code): two
machines that run the same job write byte-identical cache files.  Writes
go through a temp file + :func:`os.replace`, so concurrent writers of the
same key race benignly — last writer wins with identical bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from repro.exec.job import CODE_SALT, canonical_json

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Entry-format version; bump on incompatible layout changes.
STORE_VERSION = 1


def default_cache_dir() -> str:
    """The cache directory, honouring the ``REPRO_CACHE_DIR`` env knob."""
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


@dataclass(frozen=True)
class StoreStats:
    """Aggregate view of a cache directory."""

    entries: int
    bytes: int
    stale: int  #: entries ``get`` would miss (damaged, foreign or old-salt)
    #: Live entries per scheme; a non-trial job kind gets its own row,
    #: e.g. ``raid0 (serve)`` next to ``raid0``.
    by_scheme: dict

    def render(self) -> str:
        lines = [
            f"entries: {self.entries}",
            f"bytes:   {self.bytes:,d}",
            f"stale:   {self.stale} (unreadable, foreign or salt != {CODE_SALT!r})",
        ]
        if self.by_scheme:
            lines.append("by scheme:")
            width = max(len(k) for k in self.by_scheme)
            for name in sorted(self.by_scheme):
                lines.append(f"  {name:<{width}}  {self.by_scheme[name]}")
        return "\n".join(lines)


class ResultStore:
    """Persist serialized job results keyed by job content hash."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root if root is not None else default_cache_dir())

    def path_for(self, key: str) -> Path:
        """Entry path: two-level fan-out keeps directories small."""
        return self.root / key[:2] / f"{key}.json"

    # -- read ----------------------------------------------------------------
    @staticmethod
    def _read_live(path: Path) -> Optional[dict]:
        """The entry at ``path`` if this code can serve it, else ``None``.

        The one validity rule ``get``, ``stats`` and ``gc`` share: a
        readable JSON object of this entry format's version, written
        under the current code salt, keyed by its file name, holding
        results.
        """
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        live = (
            isinstance(entry, dict)
            and entry.get("version") == STORE_VERSION
            and entry.get("key") == path.stem
            and entry.get("salt") == CODE_SALT
            and "results" in entry
        )
        return entry if live else None

    def get(self, key: str) -> Optional[dict]:
        """The decoded entry for ``key``, or ``None``.

        Corrupt, truncated, foreign-version or stale-salt files are
        treated as misses — a damaged cache degrades to recomputation,
        never to a crash or a wrong result.
        """
        return self._read_live(self.path_for(key))

    # -- write ---------------------------------------------------------------
    def put(self, key: str, scheme: str, payload: dict, results) -> Path:
        """Persist one entry; returns its path.

        ``results`` is the job's already-jsonable results (the parsed form
        of :func:`repro.exec.job.execute_payload` output).
        """
        entry = {
            "version": STORE_VERSION,
            "key": key,
            "salt": CODE_SALT,
            "scheme": scheme,
            "payload": payload,
            "results": results,
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(canonical_json(entry) + "\n", encoding="utf-8")
        os.replace(tmp, path)
        return path

    # -- maintenance ----------------------------------------------------------
    def _entry_files(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*.json")):
            if path.is_file():
                yield path

    def stats(self) -> StoreStats:
        """Scan the cache directory; never raises on damaged entries."""
        entries = 0
        nbytes = 0
        stale = 0
        by_scheme: dict[str, int] = {}
        for path in self._entry_files():
            entries += 1
            nbytes += path.stat().st_size
            entry = self._read_live(path)
            if entry is None:
                stale += 1
                continue
            payload = entry.get("payload")
            kind = payload.get("kind") if isinstance(payload, dict) else None
            name = str(entry.get("scheme", "?"))
            if kind is not None:
                name = f"{name} ({kind})"
            by_scheme[name] = by_scheme.get(name, 0) + 1
        return StoreStats(entries=entries, bytes=nbytes, stale=stale,
                          by_scheme=by_scheme)

    def gc(self, all_entries: bool = False) -> int:
        """Remove stale entries (or every entry); returns the count removed.

        *Stale* means any entry :meth:`get` would miss: unreadable, of
        another format version or key, or written under a code-version
        salt other than the current :data:`repro.exec.job.CODE_SALT`.
        """
        removed = 0
        for path in list(self._entry_files()):
            if all_entries or self._read_live(path) is None:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        # Drop now-empty fan-out directories so `gc --all` leaves no husk.
        if self.root.is_dir():
            for sub in sorted(self.root.iterdir()):
                if sub.is_dir():
                    try:
                        sub.rmdir()
                    except OSError:
                        pass
        return removed
