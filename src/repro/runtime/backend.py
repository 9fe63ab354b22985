"""Pluggable execution backends for the parallel runtime.

Every run — a suite, a scan, a session's repetition sweep — hands its
stats-level ``(index, task, seed)`` cells to one
:class:`ExecutionBackend` through
:func:`~repro.runtime.workloop.run_work`; *where* they execute is the
backend's decision:

* :class:`LocalBackend` — this machine: inline in the calling process
  (``workers <= 1``, the deterministic reference path) or fanned out in
  chunks over a ``ProcessPoolExecutor``.
* :class:`~repro.runtime.distributed.SocketBackend` — chunks served
  over TCP to ``python -m repro worker`` processes on any number of
  hosts (see :mod:`repro.runtime.distributed`).

A run's cells come in one call, simulator cells and wild passes
alike; each backend carves them into chunks its own way, and both keep
one rule: a task that :func:`~repro.runtime.worker.runs_alone` (a pass,
a scan shard) gets a chunk of its own.

Backends return ``(cell index, RunArtifacts)`` pairs; the caller
reassembles results by index, so any backend that executes
:func:`~repro.runtime.artifacts.execute_cell` faithfully is
bit-identical to serial execution by construction.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor, as_completed
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.interop.runner import Runner
from repro.runtime.artifacts import RunArtifacts, execute_cell
from repro.runtime.events import (
    CellCompleted,
    ChunkCompleted,
    ChunkDispatched,
    EventSink,
    RunEvent,
    emit,
)
from repro.runtime.worker import (
    GroupedChunk,
    IndexedCell,
    chunk_cell_count,
    group_cells,
    run_cell_chunk,
    runs_alone,
)
from repro.runtime.workloop import LEVEL


#: Durability channel for freshly completed ``(cell index, artifacts)``
#: pairs — see :meth:`ExecutionBackend.set_result_observer`.
ResultObserver = Callable[[List[Tuple[int, RunArtifacts]]], None]


def mp_context():
    """Fork where available (cheap, inherits the parent's imports);
    the default context elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _exit_with_parent(parent: int) -> None:
    """Pool-worker initializer: a SIGKILLed session cannot shut its pool
    down, and an idle forked worker never sees EOF on a queue whose
    other end it also holds, so each worker watches for its parent."""

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(0)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


class ExecutionBackend(abc.ABC):
    """Executes indexed cells somewhere, in chunks of its own carving.

    Implementations must preserve per-cell result tagging (each result
    carries its original cell index) but are free to execute chunks in
    any order, on any host, with any concurrency.
    """

    #: Short human-readable backend name (CLI ``--backend`` values).
    name: str = "backend"

    #: Where progress events go; see :meth:`set_event_sink`.
    _event_sink: Optional[EventSink] = None

    #: Where freshly computed results are made durable; see
    #: :meth:`set_result_observer`.
    _result_observer: Optional[ResultObserver] = None

    def set_result_observer(self, observer: Optional["ResultObserver"]) -> None:
        """Attach (or detach, with ``None``) the incremental result
        observer.

        Unlike event sinks — advisory observability whose failures are
        swallowed — the result observer is a *durability* channel: the
        backend calls it with each batch of freshly computed ``(cell
        index, RunArtifacts)`` pairs as they complete (inline: every 32
        cells and at each chunk end; pool: per chunk; fleet: per chunk,
        on the worker's reader thread), and
        :func:`~repro.runtime.workloop.run_work` puts them in the
        result store from it, so a killed run loses at most the batches
        in flight. Observer exceptions therefore propagate (local
        backend) or abort the job (distributed backend): a run that
        cannot store must fail loudly, not quietly lose crash-safety.
        """
        self._result_observer = observer

    def observe_results(self, results: Sequence[Tuple[int, RunArtifacts]]) -> None:
        """Feed freshly completed results to the observer, if any."""
        if self._result_observer is not None and results:
            self._result_observer(list(results))

    def set_event_sink(self, sink: Optional[EventSink]) -> None:
        """Attach (or detach, with ``None``) the run-event observer.

        Backends report chunk dispatch/completion — and, where it
        applies, worker membership — as
        :class:`~repro.runtime.events.RunEvent` objects. Events fire
        from backend-internal threads; sinks must be quick and
        thread-safe (see :mod:`repro.runtime.events`).
        """
        self._event_sink = sink

    def emit(self, event: RunEvent) -> None:
        emit(self._event_sink, event)

    @abc.abstractmethod
    def parallelism(self) -> int:
        """How many chunks the backend can usefully run at once — drives
        its chunk sizing and a scan's dispatch window."""

    @abc.abstractmethod
    def run_cells(self, cells: Sequence[IndexedCell]) -> List[Tuple[int, RunArtifacts]]:
        """Execute indexed cells, returning the tagged results of all of
        them (in any order; callers reassemble by index).

        How the cells are carved into chunks is the backend's decision,
        with one rule every backend keeps: a task that
        :func:`~repro.runtime.worker.runs_alone` gets a chunk of its
        own. Results are tagged with cell indices either way, so
        reassembly and bundle bytes are identical no matter how the
        backend carves the work.
        """

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class LocalBackend(ExecutionBackend):
    """Execution on this machine.

    ``workers <= 1`` runs every cell inline in the calling process: no
    pool, no pickling, one :class:`CellCompleted` per cell. ``workers
    >= 2`` fans chunks out over a process pool that is created on first
    use, reused across calls and reaped by :meth:`close` (after which
    the next call makes a new one).
    """

    name = "local"

    def __init__(self, workers: int = 0):
        if workers < 0:
            raise ValueError("LocalBackend workers must be >= 0")
        self.workers = workers
        self.in_process = workers <= 1
        self._executor: Optional[Executor] = None

    def parallelism(self) -> int:
        return max(1, self.workers)

    def run_cells(self, cells: Sequence[IndexedCell]) -> List[Tuple[int, RunArtifacts]]:
        """About two chunks per execution slot of the simulator cells —
        cells of one sweep are similar enough that load balance beats
        dispatch overhead only mildly, and fewer, larger chunks keep
        pickling cheap — then a chunk of its own for each task that
        :func:`~repro.runtime.worker.runs_alone`."""
        simulated = [cell for cell in cells if not runs_alone(cell[1])]
        size = max(1, -(-len(simulated) // (self.parallelism() * 2)))
        chunks = [group_cells(simulated[i : i + size]) for i in range(0, len(simulated), size)]
        chunks += [group_cells([cell]) for cell in cells if runs_alone(cell[1])]
        return self.run_chunks(chunks)

    def run_chunks(self, chunks: Sequence[GroupedChunk]) -> List[Tuple[int, RunArtifacts]]:
        """Execute every chunk: inline, or one pool task per chunk."""
        if self.in_process:
            return self._run_inline(chunks)
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=mp_context(),
                initializer=_exit_with_parent,
                initargs=(os.getpid(),),
            )
        futures = {}
        for chunk_id, chunk in enumerate(chunks):
            cells = chunk_cell_count(chunk)
            future = self._executor.submit(run_cell_chunk, chunk, LEVEL.value)
            futures[future] = (chunk_id, cells)
            self.emit(ChunkDispatched(chunk_id=chunk_id, cells=cells, where="local-pool"))
        out: List[Tuple[int, RunArtifacts]] = []
        for future in as_completed(futures):
            chunk_id, cells = futures[future]
            results = future.result()
            out.extend(results)
            self.emit(ChunkCompleted(chunk_id=chunk_id, cells=cells, where="local-pool"))
            self.observe_results(results)
        return out

    def _run_inline(self, chunks: Sequence[GroupedChunk]) -> List[Tuple[int, RunArtifacts]]:
        total = sum(map(chunk_cell_count, chunks))
        runner = Runner()  # one per pass: it reuses scenario scaffolding
        out: List[Tuple[int, RunArtifacts]] = []
        observed = 0
        for chunk in chunks:
            for scenario, pairs in chunk:
                for index, seed in pairs:
                    out.append((index, execute_cell(scenario, seed, LEVEL, runner=runner)))
                    self.emit(CellCompleted(completed=len(out), total=total))
                    # Observe in small batches: a single end-of-run
                    # batch would lose everything to a crash.
                    if len(out) - observed >= 32:
                        self.observe_results(out[observed:])
                        observed = len(out)
            # ... and at every chunk end, like the pool and the fleet: one-item
            # chunks (passes, shards) are worth a write each.
            self.observe_results(out[observed:])
            observed = len(out)
        return out

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
