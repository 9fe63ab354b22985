"""Parallel experiment-execution runtime.

Public surface:

* :class:`ArtifactLevel` / :class:`Source` / :class:`RunArtifacts` —
  selectable per-run retention (``stats`` / ``trace`` / ``full``, and
  above ``stats`` which qlogs and captures); a suite retains above
  ``stats`` only inside a cell, only what its experiments' ``observe``
  declare they read, while they run.
* :class:`ExecutionBackend` — where cells execute:
  :class:`LocalBackend` (inline in the calling process, or a process
  pool) or :class:`SocketBackend` (chunks served over TCP to ``python
  -m repro worker`` processes on any number of hosts; see
  :mod:`repro.runtime.distributed`).
* :func:`run_work` — the one loop that executes keyed work items (a
  suite's cells, a scan's shards; :func:`work_items` keys them) against
  a backend and the result store, which records each cell as it arrives (crash recovery is a
  warm ``--cache-dir``).
* :class:`RunEvent` / :data:`EventSink` — typed progress events
  (chunk dispatch, worker membership, completion) streamed to any
  attached observer; the channel the ``repro.api`` façade exposes.
* :class:`ResultCache` — the in-memory (scenario, seed, level) tier a
  ``DiskResultCache`` serves warm hits from.
* :class:`ArtifactStore` — a disk store of per-cell trace artifacts
  (no suite, sweep or scan uses it).
* :class:`SuiteRunner` / :class:`Cell` — cross-experiment planning:
  union the ``(scenario, seed)`` cells of any set of registered
  experiments, dedupe, execute once, fan out.
* :class:`ChunkScheduler` — the distributed coordinator's one
  scheduling policy (chunk pool, requeue/poison bounds, adaptive
  sizing), with its bounds as module constants, separate from the
  :class:`SocketBackend` transport.

See ``PERFORMANCE.md`` at the repository root for the complete guide.
"""

from repro.runtime.artifacts import ArtifactLevel, RunArtifacts, Source, execute_cell
from repro.runtime.backend import ExecutionBackend, LocalBackend, ResultObserver
from repro.runtime.cache import ResultCache, loss_pattern_key, scenario_key
from repro.runtime.distributed import SocketBackend, worker_main
from repro.runtime.events import EventSink, RunEvent
from repro.runtime.scheduler import (
    Assignment,
    ChunkScheduler,
    WorkerState,
)
from repro.runtime.store import ArtifactHandle, ArtifactStore
from repro.runtime.suite import Cell, SuitePlan, SuiteReport, SuiteRunner
from repro.runtime.workloop import run_work, work_items

__all__ = [
    "ArtifactHandle",
    "ArtifactLevel",
    "ArtifactStore",
    "Assignment",
    "Cell",
    "ChunkScheduler",
    "EventSink",
    "ExecutionBackend",
    "LocalBackend",
    "ResultCache",
    "ResultObserver",
    "RunArtifacts",
    "RunEvent",
    "SocketBackend",
    "Source",
    "SuitePlan",
    "SuiteReport",
    "SuiteRunner",
    "WorkerState",
    "execute_cell",
    "loss_pattern_key",
    "run_work",
    "scenario_key",
    "work_items",
    "worker_main",
]
