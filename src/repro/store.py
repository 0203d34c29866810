"""One content-addressed store behind every cache in the system.

Everything the compile pipeline produces — the plan, the native kernels
built from its nests — is a pure function of its inputs, so it is filed
under a hash of them.  The mechanism lives here exactly once; each cache
(plan memory/disk/tiered in :mod:`repro.compiler.cache`, the ``.so``
directory of :mod:`repro.runtime.native`, the service's plan documents)
is a configuration of these three classes:

* :class:`MemoryStore` — a bounded LRU of live objects.  ``get``, ``put``,
  ``invalidate`` and the counters run under one lock: LRU bookkeeping and
  counter bumps are read-modify-writes that concurrent callers would
  otherwise lose.  Entries are shared, not copied.
* :class:`DiskStore` — one file per key under a directory, the value's
  text form given by a :class:`Codec`.  Safe across processes without a
  lock file: a write is a temp file plus ``os.replace``, so no reader ever
  sees half an entry; a read that fails to decode for *any* reason
  (truncated, hand-edited, written by an older schema) is a miss after
  one re-read, so corruption costs a recomputation, never an error.  The
  directory is bounded: ``put`` prunes to ``max_entries`` by recency of
  *use* (``get`` refreshes mtime); opening it sweeps ``*.tmp`` files that
  writers killed mid-write left behind.
* :class:`TieredStore` — memory over disk: disk hits are promoted, writes
  go through to both, memory hits refresh the disk entry's mtime.

Every tier counts into one :class:`~repro.obs.metrics.CacheStats` under
its label, which also publishes ``repro_cache_events_total`` to the
installed metrics registry.
"""

from __future__ import annotations

import heapq
import os
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, NamedTuple

from repro.obs.metrics import CacheStats


class Codec(NamedTuple):
    """How a :class:`DiskStore` files a value: ``<key><suffix>`` holding
    ``encode(value)``; ``decode`` raises on content it does not accept.
    A ``binary`` codec encodes to and decodes from ``bytes``."""

    suffix: str
    encode: Callable[[object], "str | bytes"]
    decode: Callable[["str | bytes"], object]
    binary: bool = False


class _Store:
    """What every tier offers on top of ``get``/``put``/``invalidate``."""

    def get_or_produce(self, key, produce, accept=None):
        """The entry under ``key``; on a miss ``produce()`` is stored and
        returned.  An entry that reads cleanly but fails ``accept`` (it
        is some other key's content) is invalidated and replaced."""
        value = self.get(key)
        if value is not None and accept is not None and not accept(value):
            self.invalidate(key)
            value = None
        if value is None:
            value = produce()
            self.put(key, value)
        return value


class MemoryStore(_Store):
    """Thread-safe LRU of at most ``maxsize`` entries."""

    def __init__(self, maxsize: int = 128, label: str = "") -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.stats = CacheStats(label=label)
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key):
        return self.get_if(key)

    def get_if(self, key, accept=None):
        """The entry, a counted hit, if ``accept`` (default: any entry)
        takes it; else ``None``, a counted miss only when ``accept`` was
        not given."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or accept is not None and not accept(entry):
                if accept is None:
                    self.stats.record("miss")
                return None
            self._entries.move_to_end(key)
            self.stats.record("hit")
            return entry

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.record("eviction")

    def invalidate(self, key=None) -> int:
        """Drop one entry (or all, when ``key`` is ``None``); returns the
        number dropped, each counted as one invalidation."""
        with self._lock:
            if key is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                dropped = int(self._entries.pop(key, None) is not None)
            self.stats.record("invalidation", dropped)
            return dropped


def check_key(key: object) -> str:
    """``key`` when it can name an entry file: one path component (the
    stores' own keys are sha256 hex digests).  Keys arrive from outside
    the program (``POST /cache/evict``), and anything else — a
    separator, ``""``, a NUL, a non-string — would resolve outside the
    store directory or fail inside an ``os`` call."""
    if not isinstance(key, str) or not key or "\0" in key \
            or Path(key).name != key:
        raise ValueError(
            f"store key must be a single path component, got {key!r}")
    return key


class DiskStore(_Store):
    """Bounded directory of ``codec``-encoded entries, one file per key
    (every key is checked by :func:`check_key` before the filesystem is
    touched)."""

    #: Seconds a ``*.tmp`` file must be untouched before the opening
    #: sweep treats it as orphaned rather than a live writer's scratch.
    TMP_SWEEP_AGE = 60.0

    def __init__(self, path: "str | os.PathLike[str]", codec: Codec,
                 max_entries: int = 512, label: str = "") -> None:
        if max_entries < 1:
            raise ValueError(
                f"cache max_entries must be >= 1, got {max_entries}")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.codec = codec
        self.max_entries = max_entries
        self.stats = CacheStats(label=label)
        # threads share the counters and the pruner's {name: mtime}
        self._lock = threading.Lock()
        self._mtimes: dict[str, float] = {}
        self._sweep_tmp()

    def _count(self, event: str, n: int = 1) -> int:
        with self._lock:
            self.stats.record(event, n)
        return n

    def file(self, key: str) -> Path:
        """Where ``key``'s entry lives (whether or not it exists)."""
        return self.path / f"{check_key(key)}{self.codec.suffix}"

    def _names(self) -> list[str]:
        return [name for name in os.listdir(self.path)
                if name.endswith(self.codec.suffix)]

    def _entries(self) -> list[Path]:
        return [self.path / name for name in self._names()]

    def _mtime(self, name: str) -> "float | None":
        try:
            return os.stat(self.path / name).st_mtime
        except OSError:
            return None  # raced with its owner, a pruner or a sweeper

    def _unlink(self, files) -> int:
        """Remove ``files``; one that is already gone is a concurrent
        pruner's or sweeper's work, not an error."""
        removed = 0
        for f in files:
            try:
                f.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def _sweep_tmp(self) -> int:
        """Delete orphaned ``*.tmp`` files; returns the number removed."""
        cutoff = time.time() - self.TMP_SWEEP_AGE
        return self._count("tmp_swept", self._unlink(
            f for f in self.path.glob("*.tmp")
            if (mtime := self._mtime(f.name)) is not None
            and mtime <= cutoff))

    def _prune(self) -> int:
        """Evict the oldest entries beyond ``max_entries``, in
        ``(st_mtime, name)`` order.  On coarse-mtime filesystems many
        entries share one timestamp; the name tie-break makes the victim
        set a pure function of the directory contents, so concurrent
        pruners agree on it instead of following directory order.  Names
        are statted when new and when next to go: mtimes only move
        forward, so a candidate whose mtime moved goes back on the heap."""
        with self._lock:
            seen = self._mtimes
            self._mtimes = index = {name: mtime for name in self._names()
                                    if (mtime := seen.get(name)
                                        or self._mtime(name)) is not None}
            excess = len(index) - self.max_entries
            heap = [(mtime, name) for name, mtime in index.items()]
            heapq.heapify(heap)
            victims = []
            while len(victims) < excess:
                indexed, name = heapq.heappop(heap)
                mtime = self._mtime(name)
                if mtime is None or mtime == indexed:  # gone, or oldest
                    victims.append(self.path / name)
                else:
                    index[name] = mtime
                    heapq.heappush(heap, (mtime, name))
            removed = self._unlink(victims)
        return self._count("pruned", removed)

    def __len__(self) -> int:
        return len(self._names())

    def get(self, key: str):
        path = self.file(key)
        # An entry that exists but does not decode gets one re-read (a
        # racing writer's ``os.replace`` is atomic, so the second read
        # sees a complete old or new entry); junk is junk both times.
        for _ in range(2):
            try:
                value = self.codec.decode(
                    path.read_bytes() if self.codec.binary
                    else path.read_text())
            except FileNotFoundError:
                break
            except Exception:
                continue
            self.touch(key)
            self._count("hit")
            return value
        self._count("miss")
        return None

    def touch(self, key: str) -> None:
        """Mark ``key``'s entry used now: pruning follows recency of
        use.  An entry already gone is a pruner's or an eviction's
        work, not an error."""
        try:
            os.utime(self.file(key))
        except OSError:
            pass

    def put(self, key: str, value) -> None:
        target, content = self.file(key), self.codec.encode(value)
        fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb" if self.codec.binary else "w") as f:
                f.write(content)
            os.replace(tmp, target)
        except BaseException:
            self._unlink([Path(tmp)])
            raise
        self._prune()

    def invalidate(self, key: "str | None" = None) -> int:
        """Remove one entry file (or every entry when ``key`` is
        ``None``); returns the number removed."""
        files = self._entries() if key is None else [self.file(key)]
        return self._count("invalidation", self._unlink(files))


_SHARED: dict[tuple, DiskStore] = {}
_SHARED_LOCK = threading.Lock()


def shared_disk_store(path: "str | os.PathLike[str]", codec: Codec,
                      label: str) -> DiskStore:
    """The :class:`DiskStore` of one directory — one object per
    directory and codec per process, so its counters accumulate across
    the runs that reach it without being handed a store."""
    key = (os.path.abspath(path), codec.suffix)
    with _SHARED_LOCK:
        store = _SHARED.get(key)
        if store is None:
            store = _SHARED[key] = DiskStore(key[0], codec, label=label)
        return store


class TieredStore(_Store):
    """:class:`MemoryStore` in front of an optional :class:`DiskStore`
    holding the same values under the same keys."""

    def __init__(self, memory: MemoryStore,
                 disk: "DiskStore | None" = None) -> None:
        self.memory = memory
        self.disk = disk
        # tracer spans read ``cache.stats``: the front tier's counters
        self.stats = memory.stats

    def get(self, key):
        value = self.get_if(key)
        if value is None and self.disk is not None:
            value = self.disk.get(key)
            if value is not None:
                self.memory.put(key, value)
        return value

    def get_if(self, key, accept=None):
        """The memory tier's entry if ``accept`` takes it (see
        :meth:`MemoryStore.get_if`).  A memory hit touches the disk
        entry too, so the disk tier prunes by recency of use in either
        tier, not only in its own."""
        value = self.memory.get_if(key, accept)
        if value is not None and self.disk is not None:
            self.disk.touch(key)
        return value

    def put(self, key, value) -> None:
        self.memory.put(key, value)
        if self.disk is not None:
            self.disk.put(key, value)

    def invalidate(self, key=None) -> int:
        dropped = self.memory.invalidate(key)
        if self.disk is not None:
            dropped += self.disk.invalidate(key)
        return dropped
