"""The one work loop: keyed work items against a backend, a journal
and a cache.

A suite's unique cells and a scan's shards are the same thing to the
runtime — independent, deterministic ``(index, task, seed)`` items on
the task rail of :func:`~repro.runtime.artifacts.execute_cell` — and
:func:`run_work` is the only place that decides how such a list is
executed; its callers own a fingerprint and what to do with a result.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.artifacts import ArtifactLevel, RunArtifacts
from repro.runtime.backend import ExecutionBackend
from repro.runtime.checkpoint import SuiteCheckpoint
from repro.runtime.disk_cache import DiskResultCache
from repro.runtime.events import EventSink
from repro.runtime.worker import IndexedCell

#: Work items return stats-level artifacts; anything richer is read
#: inside the cell (see :class:`~repro.runtime.artifacts.ObservedCell`).
LEVEL = ArtifactLevel.STATS

#: An open checkpoint and the ``index → artifacts`` it already held.
Journal = Tuple[SuiteCheckpoint, Dict[int, RunArtifacts]]


def open_journal(directory: str, fingerprint: str, meta: Dict[str, Any]) -> Journal:
    """Bind ``directory`` to one planned piece of work and load what a
    previous run journaled there (a directory holding different work
    raises :class:`~repro.errors.CheckpointError`)."""
    checkpoint = SuiteCheckpoint(directory)
    return checkpoint, checkpoint.load_or_init(fingerprint, meta=meta)


def run_work(
    backend: ExecutionBackend,
    items: Sequence[IndexedCell],
    deliver: Callable[[int, RunArtifacts, str], None],
    *,
    journal: Optional[Journal] = None,
    cache: Optional[DiskResultCache] = None,
    window: Optional[int] = None,
    chunk_size: Optional[int] = None,
    sink: Optional[EventSink] = None,
    on_dispatch: Optional[Callable[[List[int]], None]] = None,
) -> Counter:
    """Call ``deliver(index, artifacts, source)`` once per item,
    executing only what neither the journal nor the cache holds.

    Journaled items are replayed (``source="checkpoint"``); the rest are
    taken ``window`` at a time (all at once when ``None``): cache hits
    are journaled — a resume never needs the cache — and delivered
    (``"disk_cache"``), ``on_dispatch`` sees the indices about to run,
    and what the backend returns is stored and delivered
    (``"executed"``; the backend journals it as it arrives). ``sink`` and
    the journal are attached to the backend for this call only; what
    its owner had attached is back on every exit path. Returns this
    call's own counts by source, plus ``"missed"`` cache probes.
    """
    checkpoint, replayed = journal or (None, {})
    counts: Counter = Counter()

    def hand(index: int, artifacts: RunArtifacts, source: str) -> None:
        counts[source] += 1
        deliver(index, artifacts, source)

    pending: List[IndexedCell] = []
    for item in items:
        if item[0] in replayed:
            hand(item[0], replayed[item[0]], "checkpoint")
        else:
            pending.append(item)
    record = checkpoint.record if checkpoint is not None else None
    previous = (backend._result_observer, backend._event_sink)
    backend.set_result_observer(record)
    backend.set_event_sink(sink if sink is not None else previous[1])
    try:
        step = window or len(pending) or 1
        for start in range(0, len(pending), step):
            hits: List[Tuple[int, RunArtifacts]] = []
            keys: Dict[int, Optional[str]] = {}
            to_run: List[IndexedCell] = []
            for index, task, seed in pending[start : start + step]:
                key = cache.fingerprint(task, seed, LEVEL) if cache is not None else None
                held = cache.get(key) if key is not None else None
                if held is None:
                    keys[index] = key
                    to_run.append((index, task, seed))
                else:
                    hits.append((index, held))
            if record is not None:
                record(hits)
            for index, held in hits:
                hand(index, held, "disk_cache")
            counts["missed"] += sum(key is not None for key in keys.values())
            if not to_run:
                continue
            if on_dispatch is not None:
                on_dispatch(list(keys))
            results = backend.run_cells(to_run, LEVEL.value, chunk_size=chunk_size)
            for index, artifacts in sorted(results, key=itemgetter(0)):
                if keys[index] is not None:
                    cache.put(keys[index], artifacts)
                hand(index, artifacts, "executed")
    finally:
        backend.set_result_observer(previous[0])
        backend.set_event_sink(previous[1])
    return counts
