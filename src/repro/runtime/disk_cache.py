"""Durable on-disk result cache: warm starts that survive restarts.

The in-memory :class:`~repro.runtime.cache.ResultCache` and the
worker-resident caches of PR 5 die with their process; the crash-safe
checkpoint journal of PR 6 is pinned to one planned suite. This module
is the third leg: a **content-addressed** store of completed cells
that any later run — same process, a restarted daemon, a rebuilt
fleet — can consult before dispatching work.

Addressing
----------

A cell's identity is ``(cell-code-version, scenario fingerprint, seed,
artifact level)``, hashed to one SHA-256 name by
:func:`cell_fingerprint`:

* the *scenario fingerprint* is the value key of
  :func:`~repro.runtime.cache.scenario_key` — scenarios that defeat
  value identity (custom loss patterns) are uncacheable and always
  recomputed;
* the *artifact level* keeps ``stats`` entries from masquerading as
  ``trace`` ones (``full`` keeps live endpoints and is never cached);
* :data:`CELL_CODE_VERSION` is bumped whenever simulator or cell
  semantics change, invalidating every prior entry at once — a stale
  cache must never serve results the current code would not produce.

Layout and durability
---------------------

::

    DIR/objects/ab/abcdef....blob

Each blob is a codec-framed (:func:`~repro.runtime.wire.compress_blob`)
pickle of one :class:`~repro.runtime.artifacts.RunArtifacts` with its
scenario stripped (exactly like the distributed wire — the consulting
run reattaches its own authoritative scenario object). Writes are
same-directory temp + ``os.replace``, so a SIGKILL at any instant
leaves each entry either complete or absent; concurrent writers of the
same key are idempotent (cells are deterministic, so both wrote the
same value). Unreadable or corrupt blobs are treated as misses and
removed, never as errors — the cache is an accelerator, not a
dependency.

:func:`~repro.runtime.workloop.run_work` consults the cache before
dispatch and feeds it after execution — for suites and scans alike —
so served bundles are byte-identical to uncached runs (the replay path
is checkpoint resume's). ``repro run --cache-dir DIR``,
``Session(cache_dir=...)`` and the ``repro serve`` daemon share this store.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
from dataclasses import replace
from typing import Any, Dict, Optional

from repro.interop.runner import Scenario
from repro.runtime.artifacts import ArtifactLevel, RunArtifacts
from repro.runtime.cache import cell_cache_key
from repro.runtime.wire import DEFAULT_CODEC, compress_blob, decompress_blob

__all__ = ["CELL_CODE_VERSION", "DiskResultCache", "cell_fingerprint"]

logger = logging.getLogger(__name__)

#: Version of the cell execution semantics baked into every cache key.
#: Bump this whenever a change makes the simulator (or artifact
#: contents) produce different bytes for the same ``(scenario, seed)``
#: — every prior disk-cache entry is invalidated in one stroke.
#: 2: the ``engine`` element left the hashed tuple (PR 14).
CELL_CODE_VERSION = 2


def cell_fingerprint(scenario: Scenario, seed: int, level: Any) -> Optional[str]:
    """The content address of one cell, or ``None`` when the scenario
    defeats value identity (custom loss patterns — such cells are
    simply recomputed)."""
    key = cell_cache_key(scenario, seed, level)
    if key is None:
        return None
    doc = repr((CELL_CODE_VERSION,) + key)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


class DiskResultCache:
    """A durable ``fingerprint → RunArtifacts`` store under one
    directory.

    Safe for concurrent use by multiple processes (atomic writes,
    deterministic values); per-instance hit/miss counters reset with
    the instance, the entries themselves do not.
    """

    def __init__(self, directory: str, codec: str = DEFAULT_CODEC):
        self.directory = str(directory)
        self.codec = codec
        self._objects = os.path.join(self.directory, "objects")
        os.makedirs(self._objects, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0

    # -- accounting -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "uncacheable": self.uncacheable,
            "entries": len(self),
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

    def fingerprint(self, scenario: Scenario, seed: int, level: Any) -> Optional[str]:
        """:func:`cell_fingerprint`, counting uncacheable lookups."""
        key = cell_fingerprint(scenario, seed, level)
        if key is None:
            self.uncacheable += 1
        return key

    def _path(self, key: str) -> str:
        return os.path.join(self._objects, key[:2], f"{key}.blob")

    # -- store ----------------------------------------------------------

    def get(self, key: Optional[str]) -> Optional[RunArtifacts]:
        """The cached artifacts for ``key`` (scenario stripped — the
        caller reattaches its own), or ``None`` on a miss. Corrupt
        entries count as misses and are removed."""
        if key is None:
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:
            logger.warning("disk cache read failed for %s: %s", path, exc)
            self.misses += 1
            return None
        try:
            artifacts = pickle.loads(decompress_blob(blob))
            if not isinstance(artifacts, RunArtifacts):
                raise TypeError(f"cache entry is {type(artifacts).__name__}")
        except Exception as exc:
            # A torn write is impossible (os.replace), so a bad blob
            # means external damage; drop it and recompute the cell.
            logger.warning("dropping corrupt disk cache entry %s: %r", path, exc)
            try:
                os.remove(path)
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return artifacts

    def put(self, key: Optional[str], artifacts: RunArtifacts) -> None:
        """Durably store one completed cell (atomic; a crash mid-write
        leaves no partial entry). ``full``-level artifacts hold live
        endpoints and are silently skipped."""
        if key is None or artifacts.level is ArtifactLevel.FULL:
            return
        # Strip the scenario exactly like the distributed wire: the
        # consulting run restores its own authoritative object, and the
        # stored bytes stay independent of pickle-graph sharing.
        stripped = replace(artifacts, scenario=None)
        blob = compress_blob(
            pickle.dumps(stripped, protocol=pickle.HIGHEST_PROTOCOL),
            codec=self.codec,
        )
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            logger.warning("disk cache write failed for %s: %s", path, exc)
            try:
                os.remove(tmp)
            except OSError:
                pass
