"""Content-digest findings cache (``.repro-cache/lint/``).

A lint run is a pure function of (rule set, file contents): equal inputs
always produce the identical findings list.  That makes lint results
content-addressable exactly like ``repro.exec`` job results — this module
reuses the :func:`repro.sim.rng.stable_digest` idiom (multi-lane FNV-1a
over a part stream) to key whole-run reports, so a repeat CI lint pass is
a single digest-and-read instead of parsing and re-analysing ~250 files.

Two deliberate differences from ``repro.exec.store``:

* the digest is **re-implemented locally** rather than imported from
  ``repro.sim.rng`` — the CI lint job runs on a bare interpreter and
  ``repro.sim.rng`` imports numpy, which ``repro.lint`` must never pull
  in;
* file *contents* are first folded through :func:`hashlib.sha256` (C
  speed) and only the resulting hex digests go through the pure-Python
  FNV lanes — a warm cache hit must cost less than the parse it avoids.

Entries are JSON files named by the run key, written through a temp file
+ :func:`os.replace` (the ``repro.exec.store`` idiom), so concurrent
writers of the same key race benignly: last writer wins with identical
bytes.  Entries contain only deterministic content — findings, per-rule
timings recorded at write time, and the file count — so a warm run can
replay a byte-identical report.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterable, Optional

#: Default cache location (under the ``repro.exec`` cache root so one
#: ``rm -rf .repro-cache`` clears every content-addressed artefact).
DEFAULT_CACHE_SUBDIR = "lint"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR/lint`` (or ``.repro-cache/lint``)."""
    root = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")
    return Path(root) / DEFAULT_CACHE_SUBDIR


# ---------------------------------------------------------------------------
# stable digest (the repro.sim.rng idiom, numpy-free)


def _fnv32(data: bytes, h: int = 2166136261) -> int:
    """FNV-1a fold of ``data`` into 32 bits (process-independent)."""
    for byte in data:
        h = ((h ^ byte) * 16777619) & 0xFFFFFFFF
    return h


def _fold_parts(parts: Iterable, h: int) -> int:
    for part in parts:
        if isinstance(part, bool):
            data = b"\x01" if part else b"\x00"
        elif isinstance(part, int):
            data = (part & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        else:
            data = str(part).encode()
        # Separate parts so ("ab",) and ("a", "b") fold differently.
        h = _fnv32(data, _fnv32(b"\x1f", h))
    return h


#: Four distinct FNV offsets — independent lanes over the same parts.
_DIGEST_LANES = (2166136261, 0x01000193, 0x9E3779B9, 0xDEADBEEF)


def stable_digest(*parts) -> str:
    """128-bit hex digest of ``parts``; depends only on the values."""
    return "".join(f"{_fold_parts(parts, base):08x}" for base in _DIGEST_LANES)


def source_salt() -> str:
    """Digest of the lint package's source.

    Folds the sorted relative path and the sha256 of every ``.py`` file
    in this package through :func:`stable_digest` (the
    ``repro.exec.job.source_salt`` idiom), so an edit to any rule, to the
    engine or to the report format changes it.
    """
    root = Path(__file__).resolve().parent
    parts: list[str] = []
    for rel in sorted(p.relative_to(root).as_posix() for p in root.glob("*.py")):
        parts += [rel, hashlib.sha256((root / rel).read_bytes()).hexdigest()]
    return stable_digest(*parts)


#: Salt folded into every run key and stored in every entry: the lint
#: package's source digest, computed once at import, so entries written
#: under other rules can never replay their findings.
LINT_SALT = source_salt()


def content_digest(source: str) -> str:
    """sha256 of one file body (hashlib for speed; deterministic)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def run_key(rule_ids: Iterable[str], entries: Iterable[tuple[str, str, bool]]) -> str:
    """The cache key for one lint run.

    ``entries`` are ``(path, content_digest, is_linted)`` triples for the
    *whole analysis corpus* — linted files plus any files pulled in for
    whole-program analysis — so an edit to the ``STREAMS`` registry or to
    an importer invalidates cached whole-program findings even when that
    file is not itself being linted.
    """
    parts: list = [LINT_SALT, ",".join(sorted(rule_ids))]
    for path, digest, linted in sorted(entries):
        parts += [path, digest, linted]
    return stable_digest(*parts)


# ---------------------------------------------------------------------------
# entry IO


def entry_path(cache_dir: str | Path, key: str) -> Path:
    """Two-level fan-out keeps directories small (the store idiom)."""
    return Path(cache_dir) / key[:2] / f"{key}.json"


def load(cache_dir: str | Path, key: str) -> Optional[dict]:
    """The decoded entry for ``key``, or ``None``.

    Corrupt, truncated or foreign-version files are misses — a damaged
    cache degrades to re-linting, never to a crash or a stale report.
    """
    path = entry_path(cache_dir, key)
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(entry, dict) or entry.get("salt") != LINT_SALT:
        return None
    if not all(k in entry for k in ("findings", "files_checked", "rule_seconds")):
        return None
    return entry


def store(cache_dir: str | Path, key: str, payload: dict) -> None:
    """Atomically persist ``payload`` under ``key`` (best-effort)."""
    path = entry_path(cache_dir, key)
    tmp = path.with_suffix(".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"salt": LINT_SALT, **payload}, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        # An unwritable cache must never fail the lint run itself.
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
