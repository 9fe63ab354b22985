"""Chunk-scheduling policy for the distributed coordinator.

:class:`~repro.runtime.distributed.SocketBackend` is the *transport*
(framing, authentication, heartbeats, per-worker sockets);
:class:`ChunkScheduler` is the fleet's one *policy* (which worker gets
which cells next, how large a chunk should be, when a lost worker's
chunk is requeued, when a run must give up). Its bounds are the module
constants below, read at call time:

* the **chunk pool** — a job's cells stay un-chunked and are carved
  per worker as it asks (:meth:`SocketBackend.run_cells`); a task that
  :func:`~repro.runtime.worker.runs_alone` (a wild pass, a scan shard)
  is always carved as a chunk of its own;
* **throughput-aware, work-conserving sizing** — one EWMA of observed
  cells/sec per worker (:data:`EWMA_ALPHA`); each next chunk is the
  smaller of :data:`TARGET_CHUNK_SECONDS` of that worker's rate and the
  worker's rate-proportional share of the un-carved pool among the
  workers idle at that instant, clamped to ``[MIN_CHUNK_CELLS,
  MAX_CHUNK_CELLS]``. The time budget bounds a chunk when the pool is
  large; the share keeps the whole fleet busy when the pool is smaller
  than one budget (see :meth:`ChunkScheduler._fair_share`);
* **one holder per chunk** — a chunk is held by at most one worker at
  a time and runs again only when its worker is lost: cells are
  deterministic, so a long chunk is an expensive chunk, not a slow
  worker, and a later copy could not finish first;
* **requeue and poison bounds** — a lost worker's chunk goes back to
  the front of the queue; a chunk dispatched :data:`MAX_CHUNK_RETRIES`
  times without completing aborts the run with a typed
  :class:`~repro.errors.BackendError` carrying the poison cells;
* **elastic membership bookkeeping** — workers join and leave
  mid-job; a draining worker finishes its in-flight chunk but is never
  assigned another.

The scheduler is deliberately **not** thread-safe: every call must be
made under the owning backend's state lock. It performs no I/O and
knows nothing about sockets, which is what makes its decisions unit
testable without a fleet.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import BackendError
from repro.runtime.artifacts import RunArtifacts
from repro.runtime.worker import (
    GroupedChunk,
    IndexedCell,
    chunk_cell_count,
    group_cells,
    runs_alone,
)

__all__ = [
    "Assignment",
    "ChunkScheduler",
    "WorkerState",
    "MAX_CHUNK_RETRIES",
    "TARGET_CHUNK_SECONDS",
    "MIN_CHUNK_CELLS",
    "MAX_CHUNK_CELLS",
    "EWMA_ALPHA",
]

#: A chunk dispatched this many times without completing is poison:
#: the run aborts instead of requeueing it again.
MAX_CHUNK_RETRIES = 3
#: Adaptive chunk sizing: per-worker chunks target at most this much
#: wall clock, clamped to the cell bounds below. At the 1.5–3 ms a
#: handshake cell costs, ~1 s is 300–600 cells, so it binds only on
#: pools of thousands of cells (where it keeps a chunk's round trip,
#: and the work lost with a worker, to about a second); smaller pools
#: are sized by the fair share in :meth:`ChunkScheduler._fair_share`.
TARGET_CHUNK_SECONDS = 1.0
MIN_CHUNK_CELLS = 1
MAX_CHUNK_CELLS = 1024
#: EWMA smoothing for the per-worker cells/sec estimate: responsive
#: enough to track a throttled link, damped enough not to chase one
#: noisy chunk.
EWMA_ALPHA = 0.5


class WorkerState:
    """Scheduler-side view of one execution slot.

    Lives for the worker's whole connection (across jobs), so the
    throughput EWMA survives job boundaries; the per-job fields
    (:attr:`chunk_id`) are cleared by :meth:`ChunkScheduler.finish_job`.
    """

    __slots__ = (
        "wid",
        "ewma_rate",
        "dispatched_at",
        "dispatched_cells",
        "chunk_id",
        "draining",
    )

    def __init__(self, wid: int):
        self.wid = wid
        #: EWMA of observed cells/sec (None until the first RESULT).
        self.ewma_rate: Optional[float] = None
        self.dispatched_at: Optional[float] = None
        self.dispatched_cells = 0
        #: Chunk of the *current* job this worker is computing, if any.
        self.chunk_id: Optional[int] = None
        #: A draining worker finishes its chunk but gets no new work.
        self.draining = False

    def observe_result(self, now: float, cells: int) -> None:
        """Fold the finished chunk's round trip, ``cells`` cells since
        :attr:`dispatched_at`, into the throughput EWMA (caller holds
        the backend lock)."""
        if self.dispatched_at is None:
            return
        elapsed = max(now - self.dispatched_at, 1e-6)
        self.dispatched_at = None
        rate = cells / elapsed
        if self.ewma_rate is None:
            self.ewma_rate = rate
        else:
            self.ewma_rate = EWMA_ALPHA * rate + (1 - EWMA_ALPHA) * self.ewma_rate


@dataclass(frozen=True)
class Assignment:
    """One scheduling decision: which chunk a worker should run next."""

    chunk_id: int
    chunk: GroupedChunk
    cells: int


class _JobState:
    """One job's cell pool, carved chunks, attempts, and recorded
    results.

    The job holds the un-chunked cell pool, and checkout carves each
    worker's next chunk to the requested size, registering fresh chunk
    ids as it goes. Requeued chunks keep their concrete
    :data:`GroupedChunk`, so the poison-chunk retry bound counts
    dispatches of the same cells.
    """

    def __init__(self, job_id: int, pool: Sequence[IndexedCell], initial_chunk_cells: int):
        self.job_id = job_id
        self.chunks: List[GroupedChunk] = []
        self.pending: deque = deque()
        self.attempts: List[int] = []
        self._pool: Sequence[IndexedCell] = pool
        self._pool_pos = 0
        self.initial_chunk_cells = initial_chunk_cells
        self.results: Dict[int, List[Tuple[int, RunArtifacts]]] = {}
        self.failure: Optional[Dict[str, Any]] = None

    def checkout(self, target_cells: int) -> Optional[int]:
        """Next chunk to dispatch — a requeued chunk first, else one
        carved from the cell pool at ``target_cells``, short of the next
        task that runs alone or that task alone — enforcing the retry
        bound."""
        if self.pending:
            chunk_id = self.pending.popleft()
        elif self._pool_pos < len(self._pool):
            start = self._pool_pos
            stop = min(start + max(1, target_cells), len(self._pool))
            for pos in range(start, stop):
                if runs_alone(self._pool[pos][1]):
                    stop = max(pos, start + 1)
                    break
            cells = self._pool[start:stop]
            self._pool_pos = stop
            chunk_id = len(self.chunks)
            self.chunks.append(group_cells(cells))
            self.attempts.append(0)
        else:
            return None
        self.attempts[chunk_id] += 1
        if self.attempts[chunk_id] > MAX_CHUNK_RETRIES:
            exc = BackendError(
                f"chunk {chunk_id} was dispatched {MAX_CHUNK_RETRIES} "
                "times without completing; giving up"
            )
            # The poison cells themselves, so callers that know the
            # suite plan (SuiteRunner) can name the experiments they
            # belong to instead of an opaque chunk id.
            exc.poison_cells = tuple(
                (scenario, seed)
                for scenario, pairs in self.chunks[chunk_id]
                for _index, seed in pairs
            )
            raise exc
        return chunk_id

    def record(self, chunk_id: int, results: List[Tuple[int, RunArtifacts]]) -> bool:
        """First completion wins; a duplicate (a repeated RESULT
        frame, a presumed-lost worker's late echo) is bit-identical and
        safely ignored."""
        if chunk_id in self.results:
            return False
        self.results[chunk_id] = results
        return True

    def uncarved_cells(self) -> int:
        """What is left of the job's cell pool."""
        return len(self._pool) - self._pool_pos

    def outstanding_cells(self) -> int:
        """Cells not yet recorded: unanswered carved chunks plus the
        un-carved remainder of the pool."""
        carved = sum(
            chunk_cell_count(self.chunks[chunk_id])
            for chunk_id in range(len(self.chunks))
            if chunk_id not in self.results
        )
        return carved + self.uncarved_cells()

    def done(self) -> bool:
        return self.uncarved_cells() <= 0 and len(self.results) == len(self.chunks)

    def results_in_order(self) -> List[Tuple[int, RunArtifacts]]:
        out: List[Tuple[int, RunArtifacts]] = []
        for chunk_id in range(len(self.chunks)):
            out.extend(self.results[chunk_id])
        return out


class ChunkScheduler:
    """The fleet's scheduling policy: EWMA- and fair-share-sized
    chunks with one holder each, front-requeue with a poison bound,
    drain-aware assignment.

    One instance lives for the whole backend so per-worker throughput
    estimates persist across jobs.
    """

    def __init__(self) -> None:
        self._workers: Dict[int, WorkerState] = {}
        self._job: Optional[_JobState] = None

    # -- membership -----------------------------------------------------

    def add_worker(self, wid: int) -> WorkerState:
        state = WorkerState(wid)
        self._workers[wid] = state
        return state

    def remove_worker(self, wid: int) -> Optional[int]:
        """Deregister a slot, returning the current-job chunk id it
        held (not yet requeued — see :meth:`requeue`), if any."""
        state = self._workers.pop(wid, None)
        if state is None:
            return None
        held = state.chunk_id
        state.chunk_id = None
        return held

    def drain_worker(self, wid: int) -> None:
        state = self._workers.get(wid)
        if state is not None:
            state.draining = True

    # -- job lifecycle --------------------------------------------------

    def start_job(
        self,
        job_id: int,
        pool: Sequence[IndexedCell] = (),
        initial_chunk_cells: int = 1,
    ) -> None:
        if self._job is not None:
            raise BackendError("scheduler is already running a job")
        self._job = _JobState(job_id, pool, initial_chunk_cells)

    def finish_job(self) -> None:
        self._job = None
        # A worker still computing an aborted job's chunk stays busy at
        # the transport level (its socket-side inflight marker), but
        # the policy-level assignment belongs to the dead job.
        for state in self._workers.values():
            state.chunk_id = None

    def accepts(self, job_id: Any) -> bool:
        """Whether frames echoing ``job_id`` belong to the active job
        (stale frames from aborted jobs must be discarded)."""
        return self._job is not None and self._job.job_id == job_id

    @property
    def job(self) -> Optional[_JobState]:
        """The active job's bookkeeping (transport reads results and
        failure state through this)."""
        return self._job

    def valid_chunk(self, chunk_id: Any) -> bool:
        return (
            self._job is not None
            and isinstance(chunk_id, int)
            and 0 <= chunk_id < len(self._job.chunks)
        )

    # -- scheduling decisions -------------------------------------------

    def _target_cells(self, state: WorkerState, job: _JobState) -> int:
        """How many cells this worker's next chunk should carry: its
        EWMA throughput × the wall-clock budget (the job's conservative
        opening size until a first RESULT seeds the EWMA), capped at its
        fair share of the un-carved pool and clamped to the cell
        bounds."""
        rate = state.ewma_rate
        if rate is None:
            budget = job.initial_chunk_cells
        else:
            budget = int(rate * TARGET_CHUNK_SECONDS)
        share = self._fair_share(state, job.uncarved_cells())
        return max(MIN_CHUNK_CELLS, min(MAX_CHUNK_CELLS, budget, share))

    def _fair_share(self, state: WorkerState, uncarved: int) -> int:
        """The asking worker's slice of the un-carved pool when it is
        split, rate-proportionally, between the workers that could take
        a chunk right now (idle and not draining; the asker is one).

        Without this cap the wall-clock budget alone decides the size,
        and a pool smaller than one budget — a smoke suite's few dozen
        millisecond cells — goes whole to whichever worker asks
        first while the rest of the fleet idles. Busy workers are left
        out on purpose: counting them carves a geometric tail of ever
        smaller chunks (32, 16, 8, ...) for the same
        throughput. The split is equal while any candidate lacks a
        throughput estimate, and one cell is held back per other
        candidate so a lopsided rate cannot round a worker out of a
        pool that has a cell for everyone.
        """
        idle = [
            s for s in self._workers.values() if s.chunk_id is None and not s.draining
        ]
        rates = [s.ewma_rate for s in idle]
        if all(rates):
            share = uncarved * state.ewma_rate / sum(rates)
        else:
            share = uncarved / len(idle)
        return min(math.ceil(share), uncarved - (len(idle) - 1))

    def assign(self, wid: int, now: float) -> Optional[Assignment]:
        """Pick the next chunk for an idle worker — a requeued chunk
        first, else one carved from the pool — or ``None`` once both are
        empty, however long the chunks still held have run (``now`` is
        not consulted), or once the job has failed: its remaining work
        will never be collected. Raises
        :class:`~repro.errors.BackendError` on the poison-chunk retry
        bound."""
        job = self._job
        state = self._workers.get(wid)
        if job is None or job.failure is not None:
            return None
        if state is None or state.draining or state.chunk_id is not None:
            return None
        chunk_id = job.checkout(self._target_cells(state, job))
        if chunk_id is None:
            return None
        state.chunk_id = chunk_id
        state.dispatched_cells = chunk_cell_count(job.chunks[chunk_id])
        return Assignment(
            chunk_id=chunk_id,
            chunk=job.chunks[chunk_id],
            cells=state.dispatched_cells,
        )

    def unassign(self, wid: int, assignment: Assignment) -> None:
        """Roll back an assignment whose CHUNK frame was never sent:
        its chunk returns to the front of the queue without burning a
        poison-bound attempt."""
        state = self._workers.get(wid)
        if state is not None and state.chunk_id == assignment.chunk_id:
            state.chunk_id = None
            state.dispatched_at = None
        job = self._job
        if job is None:
            return
        job.attempts[assignment.chunk_id] -= 1
        if assignment.chunk_id not in job.results:
            job.pending.appendleft(assignment.chunk_id)

    def split_oversized(self, wid: int, assignment: Assignment) -> bool:
        """Roll back an assignment whose CHUNK frame exceeded the wire
        size bound before it was ever sent, halving the chunk instead
        of aborting the job.

        The frame-size bound is a property of the *chunk*, so requeueing
        it whole would fail identically on every worker. Instead the
        chunk's cells are split in two: the first half keeps the chunk
        id (so :meth:`_JobState.done` stays satisfiable), the second
        half registers as a fresh chunk, and both go to the front of the
        queue. The worker's throughput estimate is halved as well so its
        next EWMA-derived chunk shrinks too, rather than re-tripping the
        bound on the very next carve. A chunk already down to one cell
        cannot shrink further — that is a genuinely poison cell, and
        ``False`` tells the transport to abort with the actionable
        message.
        """
        state = self._workers.get(wid)
        if state is not None and state.chunk_id == assignment.chunk_id and state.ewma_rate:
            state.ewma_rate /= 2.0
        self.unassign(wid, assignment)
        job = self._job
        if job is None:
            return False
        if assignment.chunk_id in job.results:
            # A worker presumed lost delivered this chunk after all.
            return True
        cells: List[IndexedCell] = [
            (index, scenario, seed)
            for scenario, pairs in assignment.chunk
            for index, seed in pairs
        ]
        if len(cells) < 2:
            return False
        mid = (len(cells) + 1) // 2
        job.chunks[assignment.chunk_id] = group_cells(cells[:mid])
        job.chunks.append(group_cells(cells[mid:]))
        job.attempts.append(0)
        # Behind the first half, which unassign put at the front.
        job.pending.insert(1, len(job.chunks) - 1)
        return True

    def mark_send(self, wid: int, now: float) -> None:
        """Stamp the dispatch time (EWMA round trips start at the
        worker's own send, not at batch-assignment time)."""
        state = self._workers.get(wid)
        if state is not None:
            state.dispatched_at = now

    def record(
        self, wid: int, chunk_id: int, results: List[Tuple[int, RunArtifacts]]
    ) -> bool:
        """Accept a completed chunk; ``True`` on its first completion
        (duplicates are ignored)."""
        state = self._workers.get(wid)
        if state is not None and state.chunk_id == chunk_id:
            state.chunk_id = None
        if self._job is None:
            return False
        return self._job.record(chunk_id, results)

    def release(self, wid: int) -> None:
        """Clear the slot's assignment without recording (the worker
        reported an ERROR for it)."""
        state = self._workers.get(wid)
        if state is not None:
            state.chunk_id = None

    def can_requeue(self, chunk_id: int) -> bool:
        """Whether :meth:`requeue` would take the chunk back: lets the
        transport announce a loss (``WorkerLost``) *before* the requeue
        makes the chunk dispatchable, so the loss event orders ahead of
        the requeued chunk's ``ChunkDispatched``. A chunk already
        recorded is not; nor is one a live worker holds, which was not
        lost: its holder will record it, and a requeue would give it a
        second holder."""
        job = self._job
        return (
            job is not None
            and chunk_id not in job.results
            and all(state.chunk_id != chunk_id for state in self._workers.values())
        )

    def requeue(self, chunk_id: int) -> bool:
        """Return a lost chunk to the front of the queue, unless
        :meth:`can_requeue` says no."""
        if not self.can_requeue(chunk_id):
            return False
        self._job.pending.appendleft(chunk_id)
        return True

    def fail(self, payload: Dict[str, Any]) -> None:
        """Fail the active job. The first failure is the one reported:
        a later ERROR, or a frame a worker sends after it, does not
        replace the cause."""
        if self._job is not None and self._job.failure is None:
            self._job.failure = payload
