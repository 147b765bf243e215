"""Persistent on-disk cache for experiment artifacts.

Every simulation result (and miss profile) computed by
:class:`~repro.experiments.runner.ExperimentRunner` can be persisted
under a cache directory, so re-running a figure — in the same process,
a later process, or a parallel worker — costs a JSON load instead of a
cycle-level simulation.

Layout::

    .repro_cache/
        <sha256-key>.json     # one entry per cached artifact
        quarantine/           # corrupted entries, moved aside for post-mortem

An entry is keyed by a SHA-256 content hash over every input that can
change the artifact: the repro package version, the payload format
version, the app/system/input identifiers, the trace length and sample
rate, and the full :class:`~repro.config.SimConfig` signature.  Any of
those changing produces a different key, so stale entries are never
*returned* — they are merely left behind (``tools/check_cache.py purge``
removes them).

Robustness guarantees:

* **Atomic writes** — entries go through the shared
  :func:`~repro.profiling.serialize.write_json_atomic`: a temp file in
  the cache directory, unique to the writing process and thread, then
  ``os.replace``-d into place, so concurrent workers and interrupted
  runs never expose half-written entries.
* **Integrity validation** — each entry embeds a SHA-256 checksum of
  its canonical payload JSON; a mismatch (bit-flip, truncation, manual
  edit) is detected on load.
* **Quarantine + recompute** — corrupted entries are moved to
  ``quarantine/`` and reported as a miss, so the caller transparently
  recomputes instead of crashing or returning garbage.  Quarantine
  destinations are made unique with a numeric suffix (``<key>.json.1``,
  ``.2``, ...) so a repeated corruption of the same key never
  overwrites earlier post-mortem evidence.

With a :class:`~repro.telemetry.events.TelemetrySink` attached (the
``sink`` attribute, set by the runner when telemetry is enabled), every
load/store/quarantine also emits a structured event; with no sink the
cost is one ``None`` check per operation.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from ..config import cache_dir_from_env, no_cache_from_env
from ..errors import CacheError
from ..profiling.serialize import write_json_atomic

ENTRY_FORMAT = 1
DEFAULT_CACHE_DIR = ".repro_cache"
QUARANTINE_SUBDIR = "quarantine"
_ENTRY_SUFFIX = ".json"
_TMP_PREFIX = ".tmp-"


def canonical_json(obj) -> str:
    """Deterministic JSON used for both hashing and checksums."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cache_key(fields: Dict) -> str:
    """Content hash of the key fields identifying one artifact."""
    return hashlib.sha256(canonical_json(fields).encode("utf-8")).hexdigest()


def payload_checksum(payload: Dict) -> str:
    """Integrity checksum over an entry's canonical payload JSON."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    quarantined: int = 0
    # Corrupt entries the fallback path had to *delete* (quarantine move
    # failed); counted separately because no post-mortem file exists.
    quarantine_deleted: int = 0


class ResultCache:
    """Content-addressed JSON store with checksums and quarantine."""

    def __init__(self, directory: str = DEFAULT_CACHE_DIR, sink=None):
        if not directory:
            raise CacheError("cache directory must be a non-empty path")
        self.directory = directory
        self.stats = CacheStats()
        # Optional TelemetrySink; attached by the runner when telemetry
        # is enabled.
        self.sink = sink

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + _ENTRY_SUFFIX)

    def _quarantine_dir(self) -> str:
        return os.path.join(self.directory, QUARANTINE_SUBDIR)

    # ------------------------------------------------------------------
    def load(self, fields: Dict) -> Optional[Dict]:
        """Return the payload stored for *fields*, or ``None``.

        Unreadable or corrupted entries are quarantined and reported as
        a miss so callers recompute transparently.
        """
        key = cache_key(fields)
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (FileNotFoundError, IsADirectoryError):
            self.stats.misses += 1
            if self.sink is not None:
                self.sink.registry.inc("cache.misses")
                self.sink.emit("cache_load", key=key, outcome="miss")
            return None
        except (ValueError, OSError, UnicodeDecodeError):
            self._quarantine(path)
            self.stats.misses += 1
            if self.sink is not None:
                self.sink.registry.inc("cache.misses")
                self.sink.emit("cache_load", key=key, outcome="corrupt")
            return None
        if not self._entry_is_valid(entry, key):
            self._quarantine(path)
            self.stats.misses += 1
            if self.sink is not None:
                self.sink.registry.inc("cache.misses")
                self.sink.emit("cache_load", key=key, outcome="corrupt")
            return None
        self.stats.hits += 1
        if self.sink is not None:
            self.sink.registry.inc("cache.hits")
            self.sink.emit("cache_load", key=key, outcome="hit")
        return entry["payload"]

    @staticmethod
    def _entry_is_valid(entry, key: Optional[str] = None) -> bool:
        if not isinstance(entry, dict) or entry.get("format") != ENTRY_FORMAT:
            return False
        payload = entry.get("payload")
        if not isinstance(payload, dict):
            return False
        if key is not None and entry.get("key") != key:
            return False
        return entry.get("checksum") == payload_checksum(payload)

    def store(self, fields: Dict, payload: Dict) -> str:
        """Atomically persist *payload* under the key for *fields*."""
        key = cache_key(fields)
        path = self._path(key)
        entry = {
            "format": ENTRY_FORMAT,
            "key": key,
            "fields": fields,
            "checksum": payload_checksum(payload),
            "payload": payload,
        }
        try:
            os.makedirs(self.directory, exist_ok=True)
            write_json_atomic(entry, path)
        except OSError as exc:
            raise CacheError(f"could not write cache entry {path}: {exc}") from exc
        self.stats.stores += 1
        if self.sink is not None:
            self.sink.registry.inc("cache.stores")
            self.sink.emit("cache_store", key=key, kind=fields.get("kind"))
        return path

    # ------------------------------------------------------------------
    def quarantine_entry(self, fields: Dict) -> None:
        """Move the entry for *fields* aside (e.g. after a decode failure)."""
        self._quarantine(self._path(cache_key(fields)))

    def _quarantine_dest(self, path: str) -> str:
        """A destination that never clobbers earlier quarantined copies.

        Repeated corruptions of the same key get ``.1``, ``.2``, ...
        suffixes so every generation of post-mortem evidence survives.
        """
        base = os.path.basename(path)
        dest = os.path.join(self._quarantine_dir(), base)
        n = 0
        while os.path.exists(dest):
            n += 1
            dest = os.path.join(self._quarantine_dir(), f"{base}.{n}")
        return dest

    def _quarantine(self, path: str) -> None:
        if not os.path.isfile(path):
            return
        try:
            os.makedirs(self._quarantine_dir(), exist_ok=True)
            dest = self._quarantine_dest(path)
            os.replace(path, dest)
        except OSError:
            # Last resort: a corrupted entry must never be served again.
            # The evidence is gone, so this does not count as quarantined.
            try:
                os.unlink(path)
            except OSError:
                return
            self.stats.quarantine_deleted += 1
            if self.sink is not None:
                self.sink.registry.inc("cache.quarantine_deleted")
                self.sink.emit("cache_quarantine", path=path, deleted=True)
            return
        self.stats.quarantined += 1
        if self.sink is not None:
            self.sink.registry.inc("cache.quarantined")
            self.sink.emit("cache_quarantine", path=path, dest=dest, deleted=False)

    # ------------------------------------------------------------------
    def entry_paths(self) -> Tuple[str, ...]:
        """Paths of every (non-quarantined) entry file, sorted."""
        try:
            names = os.listdir(self.directory)
        except (FileNotFoundError, NotADirectoryError):
            return ()
        return tuple(
            os.path.join(self.directory, n)
            for n in sorted(names)
            if n.endswith(_ENTRY_SUFFIX) and not n.startswith(_TMP_PREFIX)
        )

    def entries(self) -> Iterator[Tuple[str, Optional[Dict]]]:
        """Yield ``(path, entry)`` pairs; ``entry`` is None if unreadable."""
        for path in self.entry_paths():
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    yield path, json.load(fh)
            except (ValueError, OSError, UnicodeDecodeError):
                yield path, None

    def verify(self, quarantine: bool = False) -> Tuple[int, Tuple[str, ...]]:
        """Checksum every entry; return ``(ok_count, corrupt_paths)``.

        With ``quarantine=True``, corrupt entries are also moved aside.
        """
        ok = 0
        corrupt = []
        for path, entry in self.entries():
            expected_key = os.path.basename(path)[: -len(_ENTRY_SUFFIX)]
            if entry is not None and self._entry_is_valid(entry, expected_key):
                ok += 1
            else:
                corrupt.append(path)
                if quarantine:
                    self._quarantine(path)
        return ok, tuple(corrupt)

    def purge(self, keep_version: Optional[str] = None) -> int:
        """Delete entries; returns the number removed.

        With ``keep_version`` set, only *stale* entries (unreadable, or
        written by a different repro version) are removed; without it,
        every entry goes.
        """
        removed = 0
        for path, entry in self.entries():
            stale = True
            if keep_version is not None and entry is not None:
                fields = entry.get("fields")
                if (
                    isinstance(fields, dict)
                    and fields.get("repro_version") == keep_version
                ):
                    stale = False
            if stale:
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        return len(self.entry_paths())


def cache_from_env() -> Optional[ResultCache]:
    """Build the default cache from ``REPRO_CACHE_DIR``/``REPRO_NO_CACHE``.

    Returns ``None`` (caching disabled) when ``REPRO_NO_CACHE`` is set
    to anything but ``0``/empty.
    """
    if no_cache_from_env():
        return None
    return ResultCache(cache_dir_from_env() or DEFAULT_CACHE_DIR)
