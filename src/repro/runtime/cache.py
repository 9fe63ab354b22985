"""Scenario-result memo cache.

Figure sweeps re-run shared baselines — fig12 contains fig6's entire
9 ms column, fig13 contains fig7's, and ablations re-run the unpadded
WFC/IACK cells. Simulation runs are deterministic in ``(scenario,
seed)``, so a sweep-scoped memo keyed on the scenario's value (not its
identity) lets those columns be computed once.

Only scenarios whose loss patterns have a stable value representation
are cacheable; unknown :class:`~repro.sim.loss.LossPattern` subclasses
make the key ``None`` and the cell is simply recomputed.
"""

from __future__ import annotations

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
        # their historical 13-field shape, so plan fingerprints (and
        # with them existing checkpoints) keep their value.
        key = key + (scenario.recovery_profile,)
    return key


def cell_cache_key(scenario: Scenario, seed: int, level: Any) -> Optional[Tuple[Any, ...]]:
    """The one value identity of a cell, ``(scenario_key, seed,
    level.value)`` — the in-memory memo keys on it and the disk cache
    hashes it — or ``None`` when the scenario is uncacheable."""
    skey = scenario_key(scenario)
    if skey is None:
        return None
    return (skey, seed, getattr(level, "value", level))


class ResultCache:
    """A (scenario, seed, artifact level) → :class:`RunArtifacts` memo.

    Entries are stored per artifact level: a ``stats`` result cannot
    stand in for a ``trace`` request and vice versa (the richer level
    would silently lose its artifacts).
    """

    def __init__(self, max_entries: Optional[int] = None):
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive when given")
        self.max_entries = max_entries
        self._store: Dict[Tuple[Any, ...], Any] = {}
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
        """Accounting snapshot (hits / misses / uncacheable / entries)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "uncacheable": self.uncacheable,
            "entries": len(self._store),
        }

    def make_key(self, scenario: Scenario, seed: int, level: Any) -> Optional[Tuple[Any, ...]]:
        return cell_cache_key(scenario, seed, level)

    def get(self, key: Optional[Tuple[Any, ...]]) -> Optional[Any]:
        if key is None:
            self.uncacheable += 1
            return None
        value = self._store.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: Optional[Tuple[Any, ...]], value: Any) -> None:
        if key is None:
            return
        # An overwrite re-inserts so the entry's FIFO age refreshes —
        # without this, a key rewritten at capacity stays the eviction
        # queue's oldest entry and is dropped right after being renewed.
        self._store.pop(key, None)
        if self.max_entries is not None and len(self._store) >= self.max_entries:
            # Drop the oldest entry (insertion order) — sweeps walk
            # scenarios monotonically, so FIFO eviction is adequate.
            self._store.pop(next(iter(self._store)))
        self._store[key] = value

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0
