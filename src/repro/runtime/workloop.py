"""The one work loop: keyed work items against a backend and the one
store of finished cells.

A suite's unique cells and a scan's shards are the same thing to the
runtime — independent, deterministic ``(index, task, seed, key)``
:data:`WorkItem` s on the task rail of
:func:`~repro.runtime.artifacts.execute_cell`, each carrying its store
key — and :func:`run_work` is the only place that decides how such a
list is executed; its callers own what to do with a result. A suite
plan carries its cells' keys, computed once per plan; a scan's shards
and a session's seed sweep are keyed by :func:`work_items`.

Crash recovery is a warm cache: the loop attaches the store's ``put``
as the backend's result observer, so every executed cell is written
when its batch arrives (see
:meth:`~repro.runtime.backend.ExecutionBackend.set_result_observer`),
not after the call returns. A killed run started again with the same
store is served everything that was put and executes only the rest.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.runtime.artifacts import ArtifactLevel, RunArtifacts
from repro.runtime.disk_cache import CellKey, DiskResultCache
from repro.runtime.events import EventSink
from repro.runtime.worker import IndexedCell

if TYPE_CHECKING:  # the backends import LEVEL from here
    from repro.runtime.backend import ExecutionBackend

#: What every backend executes: work items return stats-level
#: artifacts, and anything richer is read in the process that ran the
#: cell (see :class:`~repro.runtime.artifacts.ObservedCell`).
LEVEL = ArtifactLevel.STATS

#: One unit of work: ``(index, task, seed, key)``, where ``key`` is the
#: cell's store key — what :meth:`DiskResultCache.fingerprint` returns
#: for ``(task, seed, LEVEL)``; ``None`` is never stored.
WorkItem = Tuple[int, Any, int, Optional[CellKey]]


def work_items(cells: Iterable[IndexedCell], cache: Optional[DiskResultCache]) -> List[WorkItem]:
    """``cells`` as work items keyed by ``cache`` (unkeyed without one)."""
    return [
        (index, task, seed, None if cache is None else cache.fingerprint(task, seed, LEVEL))
        for index, task, seed in cells
    ]


def run_work(
    backend: ExecutionBackend,
    items: Sequence[WorkItem],
    deliver: Callable[[int, RunArtifacts, str], None],
    *,
    cache: Optional[DiskResultCache] = None,
    window: Optional[int] = None,
    sink: Optional[EventSink] = None,
    on_dispatch: Optional[Callable[[List[int]], None]] = None,
) -> Counter:
    """Call ``deliver(index, artifacts, source)`` once per item,
    executing only what the cache does not hold.

    Items are taken ``window`` at a time (all at once when ``None``)
    and looked up in ``cache`` by the key they carry: hits are
    delivered (``"disk_cache"``), ``on_dispatch`` sees the indices
    about to run, and what the backend returns is delivered
    (``"executed"``) — each keyed result already put in the cache by the
    backend's result observer as its batch arrived. ``sink`` and that
    observer are attached to the backend for this call only; what its
    owner had attached is back on every exit path. Returns this call's
    own counts by source, plus ``"missed"`` cache probes.
    """
    counts: Counter = Counter()
    # Store key of each keyed item this call dispatches; filled before
    # its window runs, read by ``store`` on the backend's threads. A
    # held cell is found by its value key alone: the SHA-256 address is
    # computed only for a blob read or write.
    keys: Dict[int, CellKey] = {}

    def store(results: List[Tuple[int, RunArtifacts]]) -> None:
        for index, artifacts in results:
            key = keys.get(index)
            if key is not None:
                cache.put(key, artifacts)

    def hand(index: int, artifacts: RunArtifacts, source: str) -> None:
        counts[source] += 1
        deliver(index, artifacts, source)

    previous = (backend._result_observer, backend._event_sink)
    backend.set_result_observer(store if cache is not None else None)
    backend.set_event_sink(sink if sink is not None else previous[1])
    try:
        step = window or len(items) or 1
        for start in range(0, len(items), step):
            to_run: List[IndexedCell] = []
            for index, task, seed, key in items[start : start + step]:
                held = cache.get(key) if cache is not None else None
                if held is not None:
                    hand(index, held, "disk_cache")
                    continue
                if cache is not None and key is not None:
                    keys[index] = key
                    counts["missed"] += 1
                to_run.append((index, task, seed))
            if not to_run:
                continue
            if on_dispatch is not None:
                on_dispatch([index for index, _task, _seed in to_run])
            results = backend.run_cells(to_run)
            for index, artifacts in sorted(results, key=itemgetter(0)):
                hand(index, artifacts, "executed")
    finally:
        backend.set_result_observer(previous[0])
        backend.set_event_sink(previous[1])
    return counts
