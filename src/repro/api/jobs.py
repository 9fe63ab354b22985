"""The shared job vocabulary of the async run APIs.

``Session.run`` blocks; a *job* is the non-blocking shape of the same
work. Both the in-process :meth:`repro.api.Session.submit` and the
``repro serve`` daemon's HTTP surface speak the types defined here —
one vocabulary, two transports — so a caller can move from

>>> handle = session.submit(request)          # in-process

to

>>> handle = ServiceClient(addr).submit(request)   # daemon

without changing what ``handle.status()`` / ``handle.events()`` /
``handle.result()`` mean.

* :data:`JobId` / :func:`new_job_id` / :func:`check_job_id` — opaque
  job names, each one URL path segment.
* :class:`JobStatus` — the five-state lifecycle
  (``queued → running → succeeded | failed``, plus ``cancelled``).
* :class:`JobRecord` — the JSON-safe status document (what the
  daemon's ``status`` endpoint returns verbatim).
* :class:`JobHandle` — the client-side contract.
* :class:`JobExecutor` — FIFO execution of submitted jobs on a bounded
  pool of worker threads; backs both ``Session.submit`` (one slot:
  a session owns a single backend) and the daemon's session pool.

The job table forgets: it keeps every queued and running job and the
last :data:`FINISHED_JOBS_KEPT` finished ones. An id it no longer
holds (or never did) raises :class:`~repro.errors.UnknownJob`; a
:class:`LocalJobHandle` holds its own job, so it keeps answering.

Cancellation is guaranteed for *queued* jobs. A *running* job is not
interrupted — its cells are deterministic, already half-stored in
any attached durable cache, and tearing down a live backend mid-chunk
would cost more than letting the suite finish — so ``cancel`` on a
running job is recorded as a refusal (the record stays ``running``).
"""

from __future__ import annotations

import re
import secrets
import threading
import time
from collections import deque
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ServiceError, UnknownJob
from repro.runtime.events import EventSink, RunEvent
from repro.runtime.suite import SuiteReport

__all__ = [
    "FINISHED_JOBS_KEPT",
    "JobExecutor",
    "JobHandle",
    "JobId",
    "JobRecord",
    "JobStatus",
    "LocalJobHandle",
    "check_job_id",
    "new_job_id",
]

#: Opaque job identifier (``job-<hex>``); treat as a string.
JobId = str

#: Finished (succeeded, failed or cancelled) jobs a :class:`JobExecutor`
#: keeps; the oldest-finished one leaves the table when another
#: finishes. Read at call time, so tests monkeypatch it.
FINISHED_JOBS_KEPT = 128


def new_job_id() -> JobId:
    return f"job-{secrets.token_hex(8)}"


def check_job_id(job_id: Any) -> JobId:
    """``job_id`` if it is one non-empty URL path segment, else
    :class:`ServiceError` — client and daemon both check: an empty id
    turns ``/v1/jobs/<id>/fetch`` into the status route of job "fetch"."""
    if not isinstance(job_id, str) or not re.fullmatch(r"[A-Za-z0-9._~-]+", job_id):
        raise ServiceError(f"invalid job id {job_id!r}: expected a name like 'job-0123abcd'")
    return job_id


class JobStatus(str, Enum):
    """Lifecycle of one submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.SUCCEEDED, JobStatus.FAILED, JobStatus.CANCELLED)


@dataclass
class JobRecord:
    """The JSON-safe status document of one job.

    ``summary`` is populated on success with the report's execution
    accounting (executed cells, durable cache hits, experiment ids) —
    the operational numbers that deliberately stay *off* the result
    bundle live here instead.
    """

    job_id: JobId
    experiments: Union[str, Tuple[str, ...]]
    smoke: bool = False
    status: JobStatus = JobStatus.QUEUED
    error: Optional[str] = None
    #: Exception class name (``UnknownExperiment``, ``BackendError``,
    #: ...) so remote callers can branch without parsing messages.
    error_kind: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    summary: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, JobStatus):
                value = value.value
            elif isinstance(value, tuple):
                value = list(value)
            doc[f.name] = value
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "JobRecord":
        known = {f.name for f in fields(cls)}
        kwargs = {name: value for name, value in doc.items() if name in known}
        if "experiments" in kwargs and isinstance(kwargs["experiments"], list):
            kwargs["experiments"] = tuple(kwargs["experiments"])
        if "status" in kwargs:
            kwargs["status"] = JobStatus(kwargs["status"])
        return cls(**kwargs)


class EventBuffer:
    """Thread-safe append-only event log with live subscribers.

    A subscriber sees every event from the job's start — events
    appended before the subscription replay immediately, later ones
    stream as they arrive — and the iterator ends when the buffer is
    closed (the job reached a terminal state).

    :meth:`subscribe` blocks a thread per subscriber;
    :meth:`add_listener` is the same stream without one, for a caller
    with an event loop of its own (the daemon's ``events`` relay).
    """

    def __init__(self) -> None:
        self._events: List[RunEvent] = []
        self._closed = False
        self._cond = threading.Condition()
        self._listeners: List[Callable[[Optional[RunEvent]], None]] = []

    def append(self, event: RunEvent) -> None:
        with self._cond:
            self._events.append(event)
            for listener in self._listeners:
                listener(event)
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            for listener in self._listeners:
                listener(None)
            self._listeners.clear()
            self._cond.notify_all()

    def add_listener(
        self, listener: Callable[[Optional[RunEvent]], None]
    ) -> Tuple[List[RunEvent], bool]:
        """The events so far and whether the buffer is closed; unless it
        is, ``listener(event)`` then runs for every later event and
        ``listener(None)`` once at close. Both are taken under one hold
        of the buffer's lock, so each event reaches the caller exactly
        once: in the returned list or through ``listener``. The listener
        runs on the appending thread with the lock held, so it must only
        hand the event on (``loop.call_soon_threadsafe``), never block.
        """
        with self._cond:
            if not self._closed:
                self._listeners.append(listener)
            return list(self._events), self._closed

    def remove_listener(self, listener: Callable[[Optional[RunEvent]], None]) -> None:
        """Stop calling ``listener`` (a no-op once the buffer closed)."""
        with self._cond:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def subscribe(self) -> Iterator[RunEvent]:
        index = 0
        while True:
            with self._cond:
                while index >= len(self._events) and not self._closed:
                    self._cond.wait()
                if index < len(self._events):
                    event = self._events[index]
                    index += 1
                else:  # closed and drained
                    return
            yield event


class Job:
    """Executor-internal state of one submitted job.

    ``request`` is dropped once the job has run; ``result`` is what
    ``run_job`` returned, or what the executor's ``hold`` kept of it.
    """

    def __init__(self, record: JobRecord, request: Any):
        self.record = record
        self.request = request
        self.events = EventBuffer()
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.done = threading.Event()
        self.cancel_requested = False
        self.lock = threading.Lock()

    def snapshot(self) -> JobRecord:
        with self.lock:
            return replace(self.record)


class JobHandle:
    """Client-side view of one job — the same shape in-process
    (:class:`LocalJobHandle`) and over the daemon API
    (:class:`repro.api.client.ServiceJobHandle`)."""

    @property
    def job_id(self) -> JobId:
        raise NotImplementedError

    def status(self) -> JobRecord:
        """A point-in-time :class:`JobRecord` snapshot."""
        raise NotImplementedError

    def events(self) -> Iterator[RunEvent]:
        """Every run event from the job's start; ends when the job
        reaches a terminal state."""
        raise NotImplementedError

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the job finishes and return its result — the
        :class:`~repro.runtime.suite.SuiteReport` in-process, the
        fetched bundle files over the daemon API. Raises the job's
        failure, :class:`~repro.errors.ServiceError` on cancellation,
        or ``TimeoutError``."""
        raise NotImplementedError

    def cancel(self) -> JobRecord:
        """Request cancellation (guaranteed only while queued) and
        return the resulting record."""
        raise NotImplementedError


class LocalJobHandle(JobHandle):
    """In-process handle backed by a :class:`JobExecutor` job. It holds
    the job itself, so it keeps answering once the table has evicted
    the job."""

    def __init__(self, job: Job, executor: "JobExecutor"):
        self._job = job
        self._executor = executor

    @property
    def job_id(self) -> JobId:
        return self._job.record.job_id

    def status(self) -> JobRecord:
        return self._job.snapshot()

    def events(self) -> Iterator[RunEvent]:
        return self._job.events.subscribe()

    def result(self, timeout: Optional[float] = None) -> SuiteReport:
        if not self._job.done.wait(timeout):
            raise TimeoutError(f"job {self.job_id} still executing")
        if self._job.exception is not None:
            raise self._job.exception
        if self._job.result is None:
            raise ServiceError(f"job {self.job_id} was cancelled before it ran")
        return self._job.result

    def cancel(self) -> JobRecord:
        if self._job.done.is_set():  # nothing to cancel, evicted or not
            return self._job.snapshot()
        return self._executor.cancel(self.job_id)


class JobExecutor:
    """FIFO job execution on a bounded worker-thread pool.

    ``run_job(request, event_sink)`` performs one job and returns its
    report; it is called from pool threads, so per-thread execution
    state (the daemon gives every pool thread its own ``Session``)
    belongs in a ``threading.local`` inside the callable. ``workers=1``
    serializes jobs — the in-process ``Session.submit`` configuration,
    since one session owns one backend.

    ``hold(job_id, report)``, when given, runs on the same pool thread
    after the report's ``accounting()`` is taken, and the job keeps
    the bytes it returns instead of the report (the daemon keeps its
    fetch document); :attr:`held_bytes` is then their total over the
    jobs in the table. Without it the job keeps the report.

    :meth:`counts` is a lifetime tally; :meth:`get` and :meth:`jobs`
    see the table, which evicts finished jobs beyond
    :data:`FINISHED_JOBS_KEPT`, oldest-finished first.
    """

    def __init__(
        self,
        run_job: Callable[[Any, EventSink], SuiteReport],
        workers: int = 1,
        name: str = "repro-jobs",
        hold: Optional[Callable[[JobId, Any], bytes]] = None,
    ):
        if workers < 1:
            raise ValueError("JobExecutor needs at least one worker")
        self._run_job = run_job
        self._hold = hold
        self._name = name
        self._queue: deque = deque()
        self._cond = threading.Condition()
        #: The table, in submission order (a dict keeps insertion order).
        self._jobs: Dict[JobId, Job] = {}
        #: Ids of the finished jobs still in the table, oldest-finished first.
        self._finished: deque = deque()
        #: Jobs per status value, kept at each transition (see _move).
        self._counts: Dict[str, int] = {status.value: 0 for status in JobStatus}
        #: Bytes the table's jobs hold through ``hold``, kept as jobs
        #: finish and leave the table (see _finish).
        self.held_bytes = 0
        self._shutdown = False
        self._threads = [
            threading.Thread(target=self._serve, name=f"{name}-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission -----------------------------------------------------

    def submit(self, request: Any) -> Job:
        record = JobRecord(
            job_id=new_job_id(),
            experiments=getattr(request, "experiments", ()),
            smoke=bool(getattr(request, "smoke", False)),
        )
        job = Job(record, request)
        with self._cond:
            if self._shutdown:
                raise ServiceError("job executor is shut down")
            self._jobs[record.job_id] = job
            self._counts[JobStatus.QUEUED.value] += 1
            self._queue.append(job)
            self._cond.notify()
        return job

    def get(self, job_id: JobId) -> Job:
        """The job the table holds under ``job_id``, else
        :class:`~repro.errors.UnknownJob`."""
        with self._cond:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(f"unknown job {job_id!r}: never submitted, or evicted")
        return job

    def jobs(self) -> List[Job]:
        """The jobs the table holds, in submission order."""
        with self._cond:
            return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        """Jobs per status value over the executor's life, evicted
        ones included (the daemon's health document): a copy of the
        tally, whatever the number of jobs run."""
        with self._cond:
            return dict(self._counts)

    def _move(self, job: Job, status: JobStatus) -> None:
        """Put ``job`` (its lock held) in ``status``, keeping the tally."""
        with self._cond:
            self._counts[job.record.status.value] -= 1
            self._counts[status.value] += 1
        job.record.status = status

    # -- cancellation ---------------------------------------------------

    def cancel(self, job_id: JobId) -> JobRecord:
        job = self.get(job_id)
        with job.lock:
            if job.record.status is JobStatus.QUEUED:
                job.cancel_requested = True
                self._move(job, JobStatus.CANCELLED)
                job.record.finished_at = time.time()
                finish = True
            else:
                # Running and terminal jobs are not interrupted (see
                # the module docs); the record answers truthfully.
                finish = False
        if finish:
            self._finish(job)
        return job.snapshot()

    # -- worker loop ----------------------------------------------------

    def _next(self) -> Optional[Job]:
        with self._cond:
            while not self._queue and not self._shutdown:
                self._cond.wait()
            return self._queue.popleft() if self._queue else None

    def _run(self, job: Job) -> Tuple[Any, Dict[str, Any]]:
        """Run one job: ``(what it keeps, its summary)``. The request
        and the report live only in this frame."""
        request, job.request = job.request, None
        report = self._run_job(request, job.events.append)
        # A suite's or a scan's accounting(): one shape.
        summary = {} if report is None else report.accounting()
        if self._hold is not None:
            report = self._hold(job.record.job_id, report)
        return report, summary

    def _serve(self) -> None:
        while True:
            job = self._next()
            if job is None:
                return
            with job.lock:
                if job.cancel_requested:
                    continue  # cancel() already finalized the record
                self._move(job, JobStatus.RUNNING)
                job.record.started_at = time.time()
            try:
                result, summary = self._run(job)
            except BaseException as exc:
                with job.lock:
                    job.exception = exc
                    self._move(job, JobStatus.FAILED)
                    job.record.error = str(exc)
                    job.record.error_kind = type(exc).__name__
                    job.record.finished_at = time.time()
            else:
                with job.lock:
                    job.result = result
                    self._move(job, JobStatus.SUCCEEDED)
                    job.record.summary = summary
                    job.record.finished_at = time.time()
            self._finish(job)

    def _finish(self, job: Job) -> None:
        """Wake what waits on ``job``, which has just reached a terminal
        state, evict the oldest-finished jobs beyond
        :data:`FINISHED_JOBS_KEPT` from the table, and keep
        :attr:`held_bytes`."""
        job.events.close()
        job.done.set()
        with self._cond:
            self._finished.append(job.record.job_id)
            evicted = [
                self._jobs.pop(self._finished.popleft())
                for _ in range(len(self._finished) - FINISHED_JOBS_KEPT)
            ]
            if self._hold is not None:  # a failed or cancelled job holds None
                self.held_bytes += len(job.result or b"") - sum(
                    len(old.result or b"") for old in evicted
                )

    # -- lifecycle ------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs, cancel everything still queued, and
        (optionally) wait for running jobs to finish."""
        with self._cond:
            if self._shutdown:
                return
            self._shutdown = True
            queued: Sequence[Job] = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        for job in queued:
            with job.lock:
                if job.cancel_requested:
                    continue  # cancel() already finalized the record
                job.cancel_requested = True
                self._move(job, JobStatus.CANCELLED)
                job.record.finished_at = time.time()
            self._finish(job)
        if wait:
            for thread in self._threads:
                thread.join()
