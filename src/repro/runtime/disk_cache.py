"""The one result store: warm starts that survive restarts, crash
recovery that is just a warm start, and warm hits that never touch the
disk.

A **content-addressed** store of completed cells that any later run —
same process, a restarted daemon, a rebuilt fleet, or the identical
command started again after a SIGKILL — consults before dispatching
work.

Addressing
----------

A cell's identity is ``(cell-code-version, scenario fingerprint, seed,
artifact level)``, hashed to one SHA-256 name by
:func:`cell_fingerprint` (:func:`cell_address` of its value key):

* the *scenario fingerprint* is the value key of
  :func:`~repro.runtime.cache.scenario_key` — scenarios that defeat
  value identity (custom loss patterns) are uncacheable and always
  recomputed;
* the *artifact level* keeps ``stats`` entries from masquerading as
  ``trace`` ones (``full`` keeps live endpoints and is never cached);
* :data:`CELL_CODE_VERSION` is bumped whenever simulator or cell
  semantics change, invalidating every prior entry at once — a stale
  cache must never serve results the current code would not produce.

Two tiers
---------

**Disk** (the durable tier)::

    DIR/objects/ab/abcdef....blob

Each blob is a codec-framed (:func:`~repro.runtime.wire.compress_blob`)
pickle of one :class:`~repro.runtime.artifacts.RunArtifacts` with its
scenario stripped (exactly like the distributed wire — the consulting
run reattaches its own authoritative scenario object). Writes are
same-directory temp + fsync + ``os.replace``, so a SIGKILL at any
instant leaves each entry either complete or absent. Each writer —
process and thread — has a temp file of its own, so concurrent writers
of the same key never truncate each other's bytes and are idempotent
(cells are deterministic, so both wrote the same value).

**Memory** (a :class:`~repro.runtime.cache.ResultCache` per instance,
LRU, bounded by :data:`~repro.runtime.cache.MAX_HELD_BYTES` of encoded
blob size): the decoded, scenario-less values this process wrote or
read back, keyed by the cell's value key
(:func:`~repro.runtime.cache.cell_cache_key`). ``get`` consults it
first and opens a blob only on a memory miss, so a held cell is found
without hashing: the SHA-256 address is computed only when a blob is
read or written (see :class:`CellKey`). Every hit, from either tier,
hands out a fresh shallow copy, so the caller reattaching its scenario
never reaches a held entry.

*Corrupt* means a blob that does not decode to a ``RunArtifacts``. The
check runs on every disk read — always for a fresh instance (a
restarted daemon) and for an entry the memory tier has evicted — and a
corrupt blob is removed and counted as a miss, never raised: the cache
is an accelerator, not a dependency. Damage to a blob whose value this
process already holds goes unread until that value is evicted; serving
it is correct, because the memory tier only ever holds a value that
decoded cleanly or that this process computed and wrote itself.

:func:`~repro.runtime.workloop.run_work` consults the cache before
dispatch and — through the backend's result observer — puts each
executed cell as its batch arrives (inline: every 32 cells and at each
chunk end; pool and fleet: per chunk), for suites and scans alike. A
run killed mid-way and started again on the same directory is served
every cell that was put and executes only the rest; served bundles are
byte-identical to uncached runs. Cells without a value identity are
recomputed after a crash, as on any rerun. ``repro run|scan
--cache-dir DIR``, ``Session(cache_dir=...)`` and the ``repro serve``
daemon share this store.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import threading
from dataclasses import fields, replace
from operator import attrgetter
from typing import Any, Callable, Dict, Optional, Tuple

from repro.interop.runner import Scenario
from repro.runtime.artifacts import ArtifactLevel, RunArtifacts
from repro.runtime.cache import ResultCache, cell_cache_key
from repro.runtime.wire import compress_blob, decompress_blob

__all__ = ["CELL_CODE_VERSION", "CellKey", "DiskResultCache", "cell_address", "cell_fingerprint"]

logger = logging.getLogger(__name__)

#: Version of the cell execution semantics baked into every cache key.
#: Bump this whenever a change makes the simulator (or artifact
#: contents) produce different bytes for the same ``(scenario, seed)``
#: — every prior disk-cache entry is invalidated in one stroke.
#: 2: the ``engine`` element left the hashed tuple (PR 14).
CELL_CODE_VERSION = 2


def cell_address(key: Tuple[Any, ...]) -> str:
    """The content address (blob name) of the cell whose value key
    :func:`~repro.runtime.cache.cell_cache_key` returned ``key``."""
    doc = repr((CELL_CODE_VERSION,) + key)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def cell_fingerprint(scenario: Scenario, seed: int, level: Any) -> Optional[str]:
    """The content address of one cell, or ``None`` when the scenario
    defeats value identity (custom loss patterns — such cells are
    simply recomputed)."""
    key = cell_cache_key(scenario, seed, level)
    return None if key is None else cell_address(key)


class CellKey(tuple):
    """What :meth:`DiskResultCache.fingerprint` returns: the cell's
    value key (this tuple, which the memory tier is keyed by) with its
    content address computed on demand — only a blob read or write
    needs it."""

    __slots__ = ()

    @property
    def address(self) -> str:
        return cell_address(self)


#: Per ``RunArtifacts`` class: its fields in ``__init__`` order.
_FIELDS: Dict[type, Callable[[Any], Tuple[Any, ...]]] = {}


def _copy(artifacts: RunArtifacts) -> RunArtifacts:
    """A shallow copy, for a fraction of ``dataclasses.replace``'s
    cost: one C getter for every field, then the class's own
    ``__init__``."""
    cls = type(artifacts)
    getter = _FIELDS.get(cls)
    if getter is None:
        getter = _FIELDS[cls] = attrgetter(*(f.name for f in fields(cls)))
    return cls(*getter(artifacts))


class DiskResultCache:
    """A durable ``fingerprint → RunArtifacts`` store under one
    directory.

    ``get`` / ``put`` take what :meth:`fingerprint` returns: a
    :class:`CellKey`, which names one blob by its ``address``. Safe
    for concurrent use by multiple processes (atomic writes,
    deterministic values) and by threads sharing the instance;
    per-instance hit/miss counters and the memory tier reset with the
    instance, the entries on disk do not.
    """

    def __init__(self, directory: str):
        self.directory = str(directory)
        self._objects = os.path.join(self.directory, "objects")
        os.makedirs(self._objects, exist_ok=True)
        #: Decoded entries in front of the directory (see module docs).
        self.memory = ResultCache()
        #: Guards the counters below: a daemon's pool threads share
        #: one instance.
        self._lock = threading.Lock()
        #: Served without executing, from either tier.
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0
        #: Blobs on disk, as ``stats()`` reports them: counted once, at
        #: the first call, then kept by this instance's own writes and
        #: removals (``None`` until counted).
        self._entries: Optional[int] = None

    # -- accounting -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Both tiers' accounting: ``hits`` / ``misses`` /
        ``uncacheable`` over every lookup, ``entries`` on disk, and the
        memory tier's own :meth:`ResultCache.stats` under ``memory``
        (its ``misses`` are the lookups that read the disk).

        ``entries`` walks the directory once per instance, at the first
        call; later calls add the blobs this instance has written since
        and subtract the corrupt ones it removed, so a health check
        stays a constant cost however large the store. Blobs another
        process writes meanwhile are not seen (``len()`` walks the
        directory every time)."""
        with self._lock:
            if self._entries is None:
                self._entries = len(self)
            return {
                "hits": self.hits,
                "misses": self.misses,
                "uncacheable": self.uncacheable,
                "entries": self._entries,
                "memory": self.memory.stats(),
            }

    def __len__(self) -> int:
        count = 0
        try:
            shards = os.listdir(self._objects)
        except OSError:
            return 0
        for shard in shards:
            try:
                count += sum(
                    1
                    for name in os.listdir(os.path.join(self._objects, shard))
                    if name.endswith(".blob")
                )
            except OSError:
                continue
        return count

    # -- addressing -----------------------------------------------------

    def fingerprint(self, scenario: Scenario, seed: int, level: Any) -> Optional[CellKey]:
        """The cell's :class:`CellKey` (no hashing yet), or ``None``
        when it is uncacheable."""
        key = cell_cache_key(scenario, seed, level)
        return None if key is None else CellKey(key)

    def _path(self, key: CellKey) -> str:
        address = key.address
        return os.path.join(self._objects, address[:2], f"{address}.blob")

    # -- store ----------------------------------------------------------

    def get(self, key: Optional[CellKey]) -> Optional[RunArtifacts]:
        """The cached artifacts for ``key`` (a fresh copy with the
        scenario stripped — the caller reattaches its own), or ``None``
        on a miss. Corrupt blobs count as misses and are removed; a
        ``None`` key (an uncacheable cell) counts as ``uncacheable``."""
        if key is None:
            with self._lock:
                self.uncacheable += 1
            return None
        held = self.memory.get(key)
        if held is None:
            held = self._read(key)
        with self._lock:
            if held is None:
                self.misses += 1
                return None
            self.hits += 1
        return _copy(held)

    def _read(self, key: CellKey) -> Optional[RunArtifacts]:
        """Decode one blob into the memory tier, or ``None`` when it is
        absent, unreadable or corrupt (and then removed)."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            logger.warning("disk cache read failed for %s: %s", path, exc)
            return None
        try:
            artifacts = pickle.loads(decompress_blob(blob))
            if not isinstance(artifacts, RunArtifacts):
                raise TypeError(f"cache entry is {type(artifacts).__name__}")
        except Exception as exc:
            # A torn write is impossible (os.replace), so a bad blob
            # means external damage; drop it and recompute the cell.
            logger.warning("dropping corrupt disk cache entry %s: %r", path, exc)
            with self._lock:
                try:
                    os.remove(path)
                except OSError:
                    pass
                else:
                    if self._entries is not None:
                        self._entries -= 1
            return None
        self.memory.put(key, artifacts, len(blob))
        return artifacts

    def put(self, key: Optional[CellKey], artifacts: RunArtifacts) -> None:
        """Durably store one completed cell (atomic; a crash mid-write
        leaves no partial entry) and hold it in memory. ``full``-level
        artifacts hold live endpoints and are silently skipped."""
        if key is None or artifacts.level is ArtifactLevel.FULL:
            return
        # Strip the scenario exactly like the distributed wire: the
        # consulting run restores its own authoritative object, and the
        # stored bytes stay independent of pickle-graph sharing.
        stripped = replace(artifacts, scenario=None)
        blob = compress_blob(pickle.dumps(stripped, protocol=pickle.HIGHEST_PROTOCOL))
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            with self._lock:
                new = self._entries is not None and not os.path.exists(path)
                os.replace(tmp, path)
                if new:
                    self._entries += 1
        except OSError as exc:
            logger.warning("disk cache write failed for %s: %s", path, exc)
            try:
                os.remove(tmp)
            except OSError:
                pass
            return
        self.memory.put(key, stripped, len(blob))
