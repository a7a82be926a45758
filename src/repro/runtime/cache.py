"""Content-addressed on-disk result cache for sweep points.

Every sweep point the runner executes is described by a JSON-able
payload: the *full* set of :class:`~repro.piuma.config.PIUMAConfig`
dataclass fields (so a changed default invalidates old entries), the
dataset spec with its down-scaling parameters, the kernel name, and the
sweep point itself (embedding dim, window).  The cache key is the
SHA-256 of that payload's canonical JSON plus a code-version salt —
bump :data:`CODE_VERSION` whenever simulator semantics change and every
stale record silently becomes a miss.

Records are single JSON files under ``benchmarks/out/.cache/`` (or
``$REPRO_CACHE_DIR``), written atomically, readable with any text tool.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import time
import warnings
from dataclasses import dataclass

#: Salt mixed into every cache key.  Bump when the simulator, kernels,
#: or record schema change meaning: old entries then miss instead of
#: serving stale numbers.
#: v2: records carry a ``"source"`` provenance field and configs grew
#: watchdog ceilings.
#: v3: records carry host-performance fields (``events``,
#: ``host_wall_s``, ``events_per_s``) and configs grew
#: ``engine_fast_path``.
#: v4: configs grew ``degradation`` (the deterministic hardware-fault
#: spec, serialized into the key payload like every other field) and
#: records run under a non-trivial spec carry a ``"degradation"``
#: provenance field.
#: v5: configs grew ``scheduler`` (the event-queue backend) and records
#: carry a ``"scheduler"`` provenance field.
#: v6: configs grew ``engine`` (the unified main-loop selector) and
#: records carry an ``"engine"`` provenance field.
#: Still v6: configs lost ``engine_fast_path`` and ``scheduler`` (the
#: calendar-queue backend was deleted; ``engine`` alone picks the main
#: loop).  Keys changed on their own, because the payload hashes every
#: config field; records did not change (``"scheduler"`` is always
#: ``"heap"``), so the salt stayed.
CODE_VERSION = "runtime-v6"

#: Memoized cwd-fallback directory (installed-package use).  Resolved
#: once so every cache in the process agrees on one directory even if
#: the working directory changes later, and the accompanying warning
#: fires once per process.
_FALLBACK_DIR = None


def default_cache_dir():
    """Resolve the cache directory.

    ``$REPRO_CACHE_DIR`` is the supported override and wins
    unconditionally (checked on every call, so tests and wrappers can
    redirect per-invocation); otherwise ``benchmarks/out/.cache`` under
    the repository root (derived from the source tree layout).  When
    that probe fails — installed-package use, no source tree — the
    first call resolves ``$PWD/benchmarks/out/.cache`` once, warns
    which directory was chosen, and every later call returns the same
    directory regardless of subsequent ``chdir``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    root = pathlib.Path(__file__).resolve().parents[3]
    if (root / "benchmarks").is_dir():
        return root / "benchmarks" / "out" / ".cache"
    global _FALLBACK_DIR
    if _FALLBACK_DIR is None:
        _FALLBACK_DIR = pathlib.Path.cwd() / "benchmarks" / "out" / ".cache"
        warnings.warn(
            "no repository source tree found; result cache falls back "
            f"to {_FALLBACK_DIR} — set $REPRO_CACHE_DIR to choose a "
            "cache directory explicitly",
            stacklevel=2,
        )
    return _FALLBACK_DIR


def cache_key(payload, salt=CODE_VERSION):
    """Stable content hash of a JSON-able payload.

    Canonical form: sorted keys, no whitespace, so logically equal
    payloads built in different orders hash identically.
    """
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256()
    digest.update(salt.encode("utf-8"))
    digest.update(b"\n")
    digest.update(canon.encode("utf-8"))
    return digest.hexdigest()


#: Filename of the eviction manifest (deliberately *not* ``*.json`` so
#: record globs, ``__len__``, and ``clear`` never mistake it for an
#: entry).
MANIFEST_NAME = "cache.manifest"


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Entries found corrupt (truncated/empty/garbage JSON) and
    #: quarantined to ``*.corrupt`` instead of served.
    corrupt: int = 0
    #: Entries evicted by the ``max_bytes`` LRU budget.
    evictions: int = 0

    @property
    def lookups(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        return self.hits / self.lookups if self.lookups else 0.0

    def __str__(self):
        text = (f"{self.hits} hit(s), {self.misses} miss(es) "
                f"({self.hit_rate:.0%} hit rate)")
        if self.corrupt:
            text += f"; {self.corrupt} corrupt entr(ies) quarantined"
        if self.evictions:
            text += f"; {self.evictions} evicted"
        return text


class ResultCache:
    """Content-addressed JSON record store.

    Parameters
    ----------
    directory:
        Where records live; default :func:`default_cache_dir`.
    enabled:
        ``False`` turns every lookup into a miss and every store into a
        no-op (the ``--no-cache`` path) while keeping the call sites
        unconditional.
    salt:
        Code-version salt mixed into keys; override in tests to prove
        invalidation.
    max_bytes:
        Size budget for the entry files.  ``None`` (default) disables
        eviction; otherwise every :meth:`put` opportunistically evicts
        least-recently-used entries (hit recency is tracked by touching
        the entry's mtime on every :meth:`get` hit) until the directory
        fits, sparing the entry just written.  Multi-process safe: each
        entry is its own atomically written file, so concurrent readers
        of an entry being evicted see either a hit or a clean miss,
        never a torn record.
    """

    def __init__(self, directory=None, enabled=True, salt=CODE_VERSION,
                 max_bytes=None):
        self.directory = pathlib.Path(directory or default_cache_dir())
        self.enabled = enabled
        self.salt = salt
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._corrupt_warned = False

    def _path(self, key):
        return self.directory / f"{key}.json"

    @property
    def manifest_path(self):
        return self.directory / MANIFEST_NAME

    def key_for(self, payload):
        """Key of a payload under this cache's salt."""
        return cache_key(payload, salt=self.salt)

    def _quarantine(self, path, reason):
        """Move a corrupt entry aside so it can never poison a reader.

        The rename is atomic; under a concurrent-reader race the loser
        finds the file already gone and does nothing.  The ``.corrupt``
        file is kept (not deleted) so an operator can post-mortem what
        a crashed or interrupted writer left behind (``repro cache
        stats`` counts them, ``repro cache clear`` sweeps them).
        """
        quarantined = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:
            return
        self.stats.corrupt += 1
        if not self._corrupt_warned:
            self._corrupt_warned = True
            warnings.warn(
                f"quarantined corrupt cache entry {path.name} -> "
                f"{quarantined.name} ({reason}); treating as a miss "
                "(further quarantines this instance will be silent)",
                RuntimeWarning,
                stacklevel=3,
            )

    def get(self, key):
        """Return the cached record for ``key`` or ``None`` on a miss.

        A corrupt entry (truncated or empty file, garbage JSON, missing
        ``record`` field — e.g. a writer killed mid-``os.replace`` on a
        filesystem without atomic rename, or plain disk corruption) is
        a miss that *quarantines* the file to ``<name>.corrupt`` so it
        cannot poison this or any other process again; the runner will
        recompute and overwrite it.  A hit refreshes the entry's mtime,
        which is the LRU recency signal for ``max_bytes`` eviction.
        """
        if not self.enabled:
            self.stats.misses += 1
            return None
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            # Unreadable but present (permissions, I/O error) — the
            # file may be fine; miss without quarantining.
            self.stats.misses += 1
            return None
        except ValueError as error:
            self._quarantine(path, f"unparseable JSON: {error}")
            self.stats.misses += 1
            return None
        try:
            record = entry["record"]
        except (KeyError, TypeError):
            self._quarantine(path, "entry has no 'record' field")
            self.stats.misses += 1
            return None
        try:
            os.utime(path, None)
        except OSError:
            pass
        self.stats.hits += 1
        return record

    def put(self, key, record, payload=None):
        """Store ``record`` under ``key`` (atomic write-then-rename).

        ``payload`` is stored alongside for debuggability — a cache file
        is self-describing about which sweep point produced it.

        A crash between the temp write and the rename strands a
        ``<key>.tmp.<pid>`` file; each ``put`` opportunistically sweeps
        stale temps left for *its* key by earlier (dead) processes, and
        :meth:`clear` sweeps all of them.
        """
        if not self.enabled:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        entry = {"salt": self.salt, "key": key, "payload": payload,
                 "record": record}
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        for stale in self.directory.glob(f"{key}.tmp.*"):
            if stale != tmp:
                try:
                    stale.unlink()
                except OSError:
                    pass
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            # Don't leave this process's own half-written temp behind.
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        self.stats.writes += 1
        if self.max_bytes is not None:
            # Opportunistic LRU housekeeping on the write path (reads
            # stay eviction-free); the entry just written is spared so
            # a tiny budget cannot evict its own record.
            self.gc(protect=key)

    def entries(self):
        """``[(key, bytes, mtime)]`` of every record file, LRU first.

        Snapshot semantics: entries vanishing mid-scan (a concurrent
        eviction or ``clear``) are skipped, not errors.
        """
        found = []
        if not self.directory.is_dir():
            return found
        for path in self.directory.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            found.append((path.stem, stat.st_size, stat.st_mtime))
        found.sort(key=lambda item: (item[2], item[0]))
        return found

    def total_bytes(self):
        """Bytes currently held by record files."""
        return sum(size for _key, size, _mtime in self.entries())

    def quarantined(self):
        """How many ``*.corrupt`` files the directory holds."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.corrupt"))

    def gc(self, max_bytes=None, protect=None):
        """Evict least-recently-used entries beyond the size budget.

        ``max_bytes`` defaults to the instance budget; ``protect``
        names one key never evicted (the record a ``put`` just wrote).
        After any eviction the summary manifest is rewritten atomically
        (temp file + ``os.replace``), so a crash mid-GC leaves either
        the old manifest or the new one — and since each entry is its
        own file, a half-finished GC merely leaves the cache slightly
        over budget, never corrupt.

        Returns the number of entries evicted.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        if budget is None:
            return 0
        entries = self.entries()
        total = sum(size for _key, size, _mtime in entries)
        evicted = 0
        for key, size, _mtime in entries:
            if total <= budget:
                break
            if key == protect:
                continue
            try:
                self._path(key).unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            self.stats.evictions += evicted
            self._write_manifest(budget, total, len(entries) - evicted,
                                 evicted)
        return evicted

    def _write_manifest(self, budget, total, kept, evicted):
        """Atomically record the last eviction pass (observability).

        Correctness never depends on the manifest — atomic per-entry
        files carry that — so a failed manifest write degrades to
        "no summary" with no further consequence.
        """
        manifest = {
            "version": 1,
            "max_bytes": budget,
            "bytes": total,
            "entries": kept,
            "evicted_last_gc": evicted,
            "generated_at": time.time(),
        }
        tmp = self.manifest_path.with_name(
            MANIFEST_NAME + f".tmp.{os.getpid()}"
        )
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, sort_keys=True)
            os.replace(tmp, self.manifest_path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

    def read_manifest(self):
        """The last GC summary, or ``None`` if absent/corrupt."""
        try:
            return json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    def clear(self):
        """Delete every cached record; returns how many were removed.

        Also sweeps stranded ``*.tmp.*`` files from crashed writers,
        quarantined ``*.corrupt`` entries, and the eviction manifest —
        none counted (they are not records) but none left to
        accumulate forever either.
        """
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for pattern in ("*.tmp.*", "*.corrupt"):
                for path in self.directory.glob(pattern):
                    try:
                        path.unlink()
                    except OSError:
                        pass
            try:
                self.manifest_path.unlink()
            except OSError:
                pass
        return removed

    def __len__(self):
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))
