"""The ``repro serve`` daemon's job brain: sessions, jobs, cache.

:class:`ServiceManager` is the transport-free core of the daemon —
everything the HTTP layer (:mod:`repro.service.daemon`) does is a thin
translation onto these methods, so the whole job surface is testable
without opening a socket.

It owns:

* a :class:`~repro.api.jobs.JobExecutor` with ``pool`` worker threads,
  each lazily binding its **own** persistent
  :class:`~repro.api.Session` (a session owns one backend; pooling
  sessions, not backends, is what lets ``pool`` suites run
  concurrently while each stays serially consistent);
* the shared durable :class:`~repro.runtime.disk_cache.DiskResultCache`
  every pooled session consults — the reason a restarted daemon serves
  a previously computed suite without re-executing a single cell;
* the job table: submit / status / event_buffer / bundle / cancel / health.

A finished job keeps its record, its events and one document: the
exact body its ``fetch`` answers with, rendered once on the pool
thread that ran it and deflated (zlib level 1). Its report and its
request are dropped there, so a job the table holds costs ~5 KB of
document instead of a report's row objects, and a fetch renders
nothing. The table keeps the last
:data:`~repro.api.jobs.FINISHED_JOBS_KEPT` finished jobs; an older id
answers :class:`~repro.errors.UnknownJob`, like one never submitted,
and ``held_bytes`` counts the documents still held.

Requests are validated against the experiment registry at submission
(:func:`~repro.api.session.validate_request`), so a typo'd experiment
id fails the ``submit`` call instead of producing a job that is born
dead.
"""

from __future__ import annotations

import threading
import time
import zlib
from typing import Any, Dict, List, Optional, Union

from repro.api.bundles import bundle_files
from repro.api.config import LocalConfig
from repro.api.jobs import EventBuffer, JobExecutor, JobRecord, JobStatus
from repro.api.session import RunRequest, Session, validate_request
from repro.errors import ServiceError
from repro.runtime.disk_cache import DiskResultCache
from repro.runtime.events import EventSink
from repro.runtime.suite import SuiteReport
from repro.schema import BUNDLE_SCHEMA_VERSION
from repro.service.http import json_body

__all__ = ["ServiceManager"]


class _ScanJob:
    """A submitted streaming scan, shaped like a run request for the
    job table (``{"scan": {ScanRequest doc}}`` on the wire)."""

    def __init__(self, request: Any):
        self.request = request
        self.experiments = "scan"
        self.smoke = False


class ServiceManager:
    """Job manager + session pool + durable cache (see module docs).

    ``pool``
        Concurrent suites; each pool slot keeps one persistent
        :class:`~repro.api.Session` alive across jobs.
    ``cache_dir``
        Durable result-cache directory shared by every pooled session
        (a path or a ready :class:`DiskResultCache`); ``None`` runs
        without one.
    ``workers``
        Per-session local pool size passed to
        :class:`~repro.api.LocalConfig` — 2 by default so suites
        parallelize (and emit ``chunk_*`` events) inside each slot.
    """

    def __init__(
        self,
        *,
        pool: int = 1,
        cache_dir: Optional[Union[str, DiskResultCache]] = None,
        workers: int = 2,
    ):
        if pool < 1:
            raise ServiceError("service pool needs at least one slot")
        if isinstance(cache_dir, str):
            cache_dir = DiskResultCache(cache_dir)
        self.cache: Optional[DiskResultCache] = cache_dir
        self.pool = pool
        self.workers = workers
        self.started_at = time.time()
        self._slot = threading.local()
        self._sessions: List[Session] = []
        self._lock = threading.Lock()
        self._executor = JobExecutor(
            self._run_job, workers=pool, name="repro-serve", hold=self._hold
        )

    # -- pool -----------------------------------------------------------

    def _session(self) -> Session:
        """This pool thread's persistent session (created on first
        use, reused for every later job on the thread)."""
        session = getattr(self._slot, "session", None)
        if session is None:
            session = Session(LocalConfig(workers=self.workers), cache_dir=self.cache)
            self._slot.session = session
            with self._lock:
                self._sessions.append(session)
        return session

    def _run_job(self, request: Any, sink: EventSink) -> Any:
        if isinstance(request, _ScanJob):
            return self._session().scan(request.request, on_event=sink)
        return self._session().run(request, on_event=sink)

    def _hold(self, job_id: str, report: Any) -> bytes:
        """What a finished job keeps: the body of its ``fetch``
        response, deflated. The files are the strings
        :func:`~repro.api.bundles.write_bundle` puts on disk, so a
        fetched bundle is byte-identical to a local run's by
        construction."""
        if isinstance(report, SuiteReport):
            files = bundle_files(report)
        else:  # a streaming scan job: one summary document
            files = {"scan.json": report.to_json()}
        doc = {"schema_version": BUNDLE_SCHEMA_VERSION, "job_id": job_id, "files": files}
        return zlib.compress(json_body(doc), 1)

    # -- job surface ----------------------------------------------------

    def submit(self, doc: Union[RunRequest, Dict[str, Any]]) -> JobRecord:
        """Validate and enqueue one request; returns the queued
        :class:`JobRecord` (its ``job_id`` names the job from now on).

        A ``{"scan": {ScanRequest doc}}`` document submits a streaming
        wild scan instead of a suite — same job table, events relay,
        and fetch surface (the bundle is one ``scan.json``)."""
        if isinstance(doc, dict) and "scan" in doc:
            from repro.wild.stream import ScanRequest

            return self._executor.submit(_ScanJob(ScanRequest.from_dict(doc["scan"]))).snapshot()
        request = doc if isinstance(doc, RunRequest) else RunRequest.from_dict(doc)
        validate_request(request)
        return self._executor.submit(request).snapshot()

    def status(self, job_id: str) -> JobRecord:
        """The job's record; :class:`~repro.errors.UnknownJob` for an id
        the table does not hold (here and in every method below)."""
        return self._executor.get(job_id).snapshot()

    def jobs(self) -> List[JobRecord]:
        """The records of the jobs the table holds, in submission order."""
        return [job.snapshot() for job in self._executor.jobs()]

    def event_buffer(self, job_id: str) -> EventBuffer:
        """Every event of one job from its start: a blocking iterator
        (:meth:`EventBuffer.subscribe`) or a listener
        (:meth:`EventBuffer.add_listener`), both ending when the job
        reaches a terminal state."""
        return self._executor.get(job_id).events

    def bundle(self, job_id: str) -> bytes:
        """The finished job's ``fetch`` response body: the JSON of its
        schema-stamped bundle document ``{"schema_version", "job_id",
        "files": {name → exact text}}``, inflated from what the job
        holds."""
        job = self._executor.get(job_id)
        record = job.snapshot()
        if not record.status.terminal:
            raise ServiceError(f"job {job_id} is {record.status.value}; fetch needs a finished job")
        if record.status is not JobStatus.SUCCEEDED or job.result is None:
            raise ServiceError(
                f"job {job_id} {record.status.value}"
                + (f": {record.error}" if record.error else "")
            )
        return zlib.decompress(job.result)

    def cancel(self, job_id: str) -> JobRecord:
        return self._executor.cancel(job_id)

    def health(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "status": "ok",
            "pool": self.pool,
            "uptime_s": round(time.time() - self.started_at, 3),
            "jobs": self._executor.counts(),
            "held_bytes": self._executor.held_bytes,
            "cache": self.cache.stats() if self.cache is not None else None,
            "cache_dir": self.cache.directory if self.cache is not None else None,
        }
        return doc

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Cancel queued jobs, finish running ones, and close every
        pooled session (idempotent)."""
        self._executor.shutdown(wait=True)
        with self._lock:
            sessions, self._sessions = self._sessions, []
        for session in sessions:
            session.close()
