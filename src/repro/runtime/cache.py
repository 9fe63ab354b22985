"""The in-memory result tier: a bounded, thread-safe LRU of cells.

Simulation runs are deterministic in ``(scenario, seed)``, so a memo
keyed on the scenario's value (not its identity) can answer for any
later run that plans the same cell. :class:`ResultCache` is that memo,
and the one in-memory tier in the repository:

* every :class:`~repro.runtime.disk_cache.DiskResultCache` fronts its
  directory with one, so a warm cell in a long-lived process (the
  ``repro serve`` daemon) is a dict lookup instead of a file read;
* the process holds its recent suite plans in one
  (:meth:`~repro.runtime.suite.SuiteRunner.plan`), bounded by count.

It holds decoded values, and evicts least recently used entries once
the summed byte size its callers declared passes
:data:`MAX_HELD_BYTES` (the disk tier declares each blob's encoded
length) or, when given, ``max_entries``. Pool threads of one daemon
share it, so every operation takes one lock.

Only scenarios whose loss patterns have a stable value representation
are cacheable; unknown :class:`~repro.sim.loss.LossPattern` subclasses
make the key ``None`` and the cell is simply recomputed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.interop.runner import Scenario
from repro.sim.loss import (
    CompositeLoss,
    GilbertElliottLoss,
    IndexedLoss,
    LossPattern,
    NoLoss,
    RandomLoss,
)

#: Ceiling on the summed declared size of one cache's entries, in
#: encoded bytes: ~12k cells at the ~670 B a smoke-suite blob averages,
#: held decoded in ~2.7 times that (~22 MB). A constant, not a setting.
MAX_HELD_BYTES = 8 * 1024 * 1024


def loss_pattern_key(pattern: Optional[LossPattern]) -> Optional[str]:
    """A stable value key for the known loss patterns, else ``None``."""
    if pattern is None:
        return ""
    if isinstance(pattern, NoLoss):
        return "none"
    if isinstance(pattern, IndexedLoss):
        return f"idx:{sorted(pattern.indices)}"
    if isinstance(pattern, RandomLoss):
        return f"rand:{pattern.rate}:{pattern.seed}"
    if isinstance(pattern, GilbertElliottLoss):
        return f"ge:{pattern.p}:{pattern.r}:{pattern.h}:{pattern.seed}"
    if isinstance(pattern, CompositeLoss):
        parts = [loss_pattern_key(p) for p in pattern.patterns]
        if any(part is None for part in parts):
            return None
        return "comp:[" + ",".join(parts) + "]"  # type: ignore[arg-type]
    return None


def scenario_key(scenario: Scenario) -> Optional[Tuple[Any, ...]]:
    """A hashable value key for a scenario, or ``None`` if any field
    defeats value-identity (custom loss patterns).

    Task cells (objects with a ``task_key()`` method — see
    :func:`repro.runtime.artifacts.execute_cell`) define their own
    value identity; everything downstream (in-memory memo, durable
    disk cache) keys them exactly like scenarios.
    """
    task_key = getattr(scenario, "task_key", None)
    if callable(task_key):
        return task_key()
    c2s = loss_pattern_key(scenario.client_to_server_loss)
    s2c = loss_pattern_key(scenario.server_to_client_loss)
    if c2s is None or s2c is None:
        return None
    key: Tuple[Any, ...] = (
        scenario.client,
        scenario.mode.value,
        scenario.http,
        scenario.rtt_ms,
        scenario.delta_t_ms,
        scenario.certificate.name,
        scenario.certificate.chain_size,
        scenario.response_size,
        scenario.bandwidth_bps,
        c2s,
        s2c,
        scenario.pad_instant_ack,
        scenario.timeout_ms,
    )
    if scenario.recovery_profile != "default":
        # Appended only for non-default profiles: default scenarios keep
        # their historical 13-field shape, so cell fingerprints (and
        # with them existing cache entries) keep their value.
        key = key + (scenario.recovery_profile,)
    return key


def cell_cache_key(scenario: Scenario, seed: int, level: Any) -> Optional[Tuple[Any, ...]]:
    """The one value identity of a cell, ``(scenario_key, seed,
    level.value)`` — the in-memory memo keys on it and the disk cache
    hashes it — or ``None`` when the scenario is uncacheable."""
    return value_key(scenario_key(scenario), seed, level)


def value_key(
    skey: Optional[Tuple[Any, ...]], seed: int, level: Any
) -> Optional[Tuple[Any, ...]]:
    """:func:`cell_cache_key` of a cell whose scenario key ``skey`` is
    already known (the suite planner has it from deduplication)."""
    if skey is None:
        return None
    return (skey, seed, getattr(level, "value", level))


class ResultCache:
    """A (scenario, seed, artifact level) → value memo, least recently
    used out first.

    Entries are stored per artifact level: a ``stats`` result cannot
    stand in for a ``trace`` request and vice versa (the richer level
    would silently lose its artifacts). A hit returns the held object
    itself; a caller that lets others mutate it copies it first (the
    disk tier does).
    """

    def __init__(self, max_entries: Optional[int] = None):
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive when given")
        self.max_entries = max_entries
        #: key → (value, declared size), least recently used first.
        self._store: "OrderedDict[Tuple[Any, ...], Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: Lookups for scenarios that defeat value identity (``key is
        #: None``). Tracked apart from ``misses``: "the cache cannot
        #: apply" is not "the cache missed", and conflating them makes
        #: hit-rate reporting lie about how well the memo works on the
        #: cells it can actually serve.
        self.uncacheable = 0

    def __len__(self) -> int:
        return len(self._store)

    def stats(self) -> Dict[str, int]:
        """Accounting snapshot: the counters ``hits`` / ``misses`` /
        ``uncacheable``, and the levels ``entries`` / ``bytes`` held."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "uncacheable": self.uncacheable,
                "entries": len(self._store),
                "bytes": self._bytes,
            }

    def make_key(self, scenario: Scenario, seed: int, level: Any) -> Optional[Tuple[Any, ...]]:
        return cell_cache_key(scenario, seed, level)

    def get(self, key: Optional[Any]) -> Optional[Any]:
        with self._lock:
            if key is None:
                self.uncacheable += 1
                return None
            entry = self._store.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._store.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: Optional[Any], value: Any, size: int = 0) -> None:
        """Hold ``value`` under ``key``, declared as ``size`` bytes
        (``0`` when the caller never encodes it). A value larger than
        :data:`MAX_HELD_BYTES` is not held."""
        if key is None:
            return
        with self._lock:
            old = self._store.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            if size > MAX_HELD_BYTES:
                return
            self._store[key] = (value, size)
            self._bytes += size
            while self._bytes > MAX_HELD_BYTES or (
                self.max_entries is not None and len(self._store) > self.max_entries
            ):
                _key, (_value, dropped) = self._store.popitem(last=False)
                self._bytes -= dropped

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.uncacheable = 0
