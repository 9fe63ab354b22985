"""The shared job vocabulary (:mod:`repro.api.jobs`) and
``Session.submit``: non-blocking runs with the same handle surface the
service client exposes."""

import json
import sys
import threading
import time
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.api.jobs as jobs_module
from repro.api import (
    JobRecord,
    JobStatus,
    RunRequest,
    ServiceError,
    Session,
    UnknownExperiment,
)
from repro.api.jobs import EventBuffer, JobExecutor, LocalJobHandle, new_job_id
from repro.errors import UnknownJob
from repro.runtime.events import CellCompleted, SuiteCompleted, SuitePlanned
from repro.service.manager import ServiceManager

# -- vocabulary ---------------------------------------------------------


def test_job_ids_are_unique_and_opaque():
    ids = {new_job_id() for _ in range(100)}
    assert len(ids) == 100
    assert all(job_id.startswith("job-") for job_id in ids)


def test_job_status_terminality():
    assert not JobStatus.QUEUED.terminal
    assert not JobStatus.RUNNING.terminal
    assert JobStatus.SUCCEEDED.terminal
    assert JobStatus.FAILED.terminal
    assert JobStatus.CANCELLED.terminal


def test_job_record_round_trips_through_dict():
    record = JobRecord(
        job_id="job-abc",
        experiments=("fig6", "fig12"),
        smoke=True,
        status=JobStatus.FAILED,
        error="boom",
        error_kind="BackendError",
        summary={"executed_cells": 3},
    )
    doc = record.to_dict()
    assert doc["status"] == "failed"
    assert doc["experiments"] == ["fig6", "fig12"]
    assert JobRecord.from_dict(doc) == record


def test_job_record_from_dict_ignores_unknown_fields():
    doc = JobRecord(job_id="job-x", experiments="all").to_dict()
    doc["from_the_future"] = 42
    assert JobRecord.from_dict(doc).job_id == "job-x"


# -- event buffer -------------------------------------------------------


def test_event_buffer_replays_past_events_then_streams_live():
    buffer = EventBuffer()
    first = CellCompleted(completed=1, total=2)
    second = CellCompleted(completed=2, total=2)
    buffer.append(first)

    seen = []
    done = threading.Event()

    def subscriber():
        for event in buffer.subscribe():
            seen.append(event)
        done.set()

    thread = threading.Thread(target=subscriber, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5
    while len(seen) < 1 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert seen == [first]  # replayed before anything new happened
    buffer.append(second)
    buffer.close()
    assert done.wait(5)
    assert seen == [first, second]


def test_closed_empty_buffer_ends_subscription_immediately():
    buffer = EventBuffer()
    buffer.close()
    assert list(buffer.subscribe()) == []


# -- executor -----------------------------------------------------------


def test_executor_runs_jobs_fifo_on_one_worker():
    order = []
    gate = threading.Event()

    def run_job(request, sink):
        if request == "first":
            gate.wait(5)
        order.append(request)
        return None

    executor = JobExecutor(run_job, workers=1)
    job1 = executor.submit("first")
    job2 = executor.submit("second")
    assert job2.snapshot().status is JobStatus.QUEUED
    gate.set()
    assert job1.done.wait(5) and job2.done.wait(5)
    assert order == ["first", "second"]
    executor.shutdown()


def test_executor_cancel_is_guaranteed_for_queued_jobs():
    gate = threading.Event()

    def run_job(request, sink):
        gate.wait(5)
        return None

    executor = JobExecutor(run_job, workers=1)
    running = executor.submit("running")
    queued = executor.submit("queued")
    deadline = time.monotonic() + 5
    while (
        running.snapshot().status is not JobStatus.RUNNING
        and time.monotonic() < deadline
    ):
        time.sleep(0.005)
    record = executor.cancel(queued.record.job_id)
    assert record.status is JobStatus.CANCELLED
    assert queued.done.is_set()
    # A running job is not interrupted; the record answers truthfully.
    not_cancelled = executor.cancel(running.record.job_id)
    assert not_cancelled.status is JobStatus.RUNNING
    gate.set()
    assert running.done.wait(5)
    assert running.snapshot().status is JobStatus.SUCCEEDED
    executor.shutdown()


def test_a_local_handle_cancels_its_queued_job():
    gate = threading.Event()
    executor = JobExecutor(lambda request, sink: gate.wait(5), workers=1)
    running = executor.submit("running")
    queued = LocalJobHandle(executor.submit("queued"), executor)
    deadline = time.monotonic() + 5
    while running.snapshot().status is not JobStatus.RUNNING and time.monotonic() < deadline:
        time.sleep(0.005)
    assert queued.cancel().status is JobStatus.CANCELLED
    assert queued.status().status is JobStatus.CANCELLED
    gate.set()
    executor.shutdown()


def test_executor_cancel_unknown_job_raises_service_error():
    executor = JobExecutor(lambda request, sink: None, workers=1)
    with pytest.raises(UnknownJob) as raised:
        executor.cancel("job-doesnotexist")
    assert isinstance(raised.value, ServiceError)
    with pytest.raises(UnknownJob):
        executor.get("job-doesnotexist")
    executor.shutdown()


def test_executor_shutdown_cancels_queued_and_rejects_new():
    gate, started = threading.Event(), threading.Event()

    def run_job(request, sink):
        started.set()
        gate.wait(5)

    executor = JobExecutor(run_job, workers=1)
    executor.submit("running")
    queued = executor.submit("queued")
    assert started.wait(5)
    # The first job holds the gate until shutdown has cancelled the
    # second one; only then may the worker thread look for more work.
    releaser = threading.Thread(target=lambda: queued.done.wait(5) and gate.set())
    releaser.start()
    executor.shutdown(wait=True)
    releaser.join(5)
    assert not releaser.is_alive()
    assert queued.snapshot().status is JobStatus.CANCELLED
    with pytest.raises(ServiceError):
        executor.submit("late")


def test_executor_shutdown_leaves_a_cancelled_job_as_cancel_left_it():
    gate, started = threading.Event(), threading.Event()

    def run_job(request, sink):
        started.set()
        gate.wait(5)

    executor = JobExecutor(run_job, workers=1)
    running = executor.submit("running")
    queued = executor.submit("queued")
    assert started.wait(5)
    cancelled = executor.cancel(queued.record.job_id)
    assert cancelled.status is JobStatus.CANCELLED
    time.sleep(0.01)  # a second finalization would stamp a later time
    executor.shutdown(wait=False)  # finalizes the queue before returning
    gate.set()
    assert running.done.wait(5)
    assert queued.snapshot().finished_at == cancelled.finished_at
    assert executor.counts()["cancelled"] == 1


def test_result_without_accounting_fails_its_job_and_the_executor_goes_on():
    def run_job(request, sink):
        return object() if request == "odd" else None

    executor = JobExecutor(run_job, workers=1)
    odd = executor.submit("odd")
    assert odd.done.wait(5)
    record = odd.snapshot()
    assert record.status is JobStatus.FAILED
    assert record.error_kind == "AttributeError"
    after = executor.submit("plain")
    assert after.done.wait(5)
    assert after.snapshot().status is JobStatus.SUCCEEDED
    executor.shutdown()


def test_failed_job_records_error_and_kind():
    def run_job(request, sink):
        raise ValueError("bad cells")

    executor = JobExecutor(run_job, workers=1)
    job = executor.submit("x")
    assert job.done.wait(5)
    record = job.snapshot()
    assert record.status is JobStatus.FAILED
    assert record.error == "bad cells"
    assert record.error_kind == "ValueError"
    executor.shutdown()


def test_executor_counts_equal_a_recount_through_every_transition():
    """``counts()`` is a tally kept at each transition, never a walk
    over the jobs; it must agree with one at every point."""
    gates = {name: threading.Event() for name in ("succeed", "fail", "last")}

    def run_job(request, sink):
        gates[request].wait(5)
        if request == "fail":
            raise ValueError("bad cells")
        return None

    def recount(executor):
        counts = {status.value: 0 for status in JobStatus}
        for job in executor.jobs():
            counts[job.snapshot().status.value] += 1
        return counts

    def until(job, status):
        deadline = time.monotonic() + 5
        while job.snapshot().status is not status and time.monotonic() < deadline:
            time.sleep(0.005)

    def tally(queued=0, running=0, succeeded=0, failed=0, cancelled=0):
        return dict(
            queued=queued, running=running, succeeded=succeeded, failed=failed,
            cancelled=cancelled,
        )

    executor = JobExecutor(run_job, workers=1)
    first = executor.submit("succeed")
    failing = executor.submit("fail")
    cancelled = executor.submit("cancel")
    last = executor.submit("last")
    until(first, JobStatus.RUNNING)
    executor.cancel(cancelled.record.job_id)
    executor.cancel(first.record.job_id)  # refused: it runs on
    assert executor.counts() == recount(executor) == tally(queued=2, running=1, cancelled=1)

    gates["succeed"].set()
    gates["fail"].set()
    assert failing.done.wait(5)
    until(last, JobStatus.RUNNING)
    assert executor.counts() == recount(executor) == tally(
        running=1, succeeded=1, failed=1, cancelled=1
    )

    late = executor.submit("late")
    executor.cancel(late.record.job_id)
    executor.submit("queued at shutdown")
    assert executor.counts() == recount(executor) == tally(
        queued=1, running=1, succeeded=1, failed=1, cancelled=2
    )
    # Shutdown cancels what is still queued; "late" stays counted once.
    executor.shutdown(wait=False)
    gates["last"].set()
    assert last.done.wait(5)
    assert executor.counts() == recount(executor) == tally(succeeded=2, failed=1, cancelled=3)
    executor.shutdown(wait=True)


# -- the bound on finished jobs ------------------------------------------


class _Report:
    """The least a job may return for the daemon to hold it."""

    def accounting(self):
        return {"executed_cells": 0}

    def to_json(self):
        return '{"report": true}'


def _until(predicate, what):
    deadline = time.monotonic() + 5
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.001)


STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.booleans()),
        st.tuples(st.just("finish"), st.just(0)),
        st.tuples(st.just("cancel"), st.integers(0, 30)),
    ),
    max_size=30,
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=STEPS)
def test_the_table_keeps_the_last_finished_jobs_and_every_live_one(steps):
    """Under any submit / finish / cancel sequence on one worker, the
    table holds every queued and running job and exactly the last
    ``FINISHED_JOBS_KEPT`` finished ones; the tally counts every job
    ever submitted; an evicted id is ``UnknownJob`` through the
    manager, while the job's own handle still answers."""
    release = threading.Semaphore(0)

    def run_job(self, request, sink):
        release.acquire()
        if not request.smoke:
            raise ValueError("told to fail")
        return _Report()

    def live():
        return [h for h in handles if not h.status().status.terminal]

    def settled():
        # One worker: the oldest live job runs, every other one waits.
        statuses = [h.status().status for h in live()]
        return not statuses or statuses[0] is JobStatus.RUNNING

    handles, finished = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jobs_module, "FINISHED_JOBS_KEPT", 3)
        patch.setattr(ServiceManager, "_run_job", run_job)
        manager = ServiceManager(workers=0)
        executor = manager._executor
        try:
            for op, arg in steps:
                if op == "submit":
                    record = manager.submit(RunRequest("fig6", smoke=arg))
                    handles.append(LocalJobHandle(executor.get(record.job_id), executor))
                elif op == "finish" and live():
                    running = live()[0]
                    release.release()
                    _until(lambda: running.status().status.terminal, "job never finished")
                    finished.append(running.job_id)
                elif op == "cancel" and handles:
                    handle = handles[arg % len(handles)]
                    if handle.job_id in finished[:-3]:
                        with pytest.raises(UnknownJob):
                            manager.cancel(handle.job_id)
                    else:
                        was = handle.status().status
                        if manager.cancel(handle.job_id).status is JobStatus.CANCELLED:
                            if was is JobStatus.QUEUED:
                                finished.append(handle.job_id)
                _until(settled, "the worker never took the next job")

                table = {r.job_id: r.status for r in manager.jobs()}
                kept = [job_id for job_id, status in table.items() if status.terminal]
                assert sorted(kept) == sorted(finished[-3:])
                assert {h.job_id for h in live()} <= set(table)
                counts = {status.value: 0 for status in JobStatus}
                for h in handles:
                    counts[h.status().status.value] += 1
                assert manager.health()["jobs"] == counts
                assert manager.health()["held_bytes"] == sum(
                    len(zlib.compress(manager.bundle(job_id), 1))
                    for job_id in kept
                    if table[job_id] is JobStatus.SUCCEEDED
                )
            for handle in handles:
                if handle.job_id not in finished[:-3]:
                    continue
                for call in (manager.status, manager.bundle, manager.event_buffer, manager.cancel):
                    with pytest.raises(UnknownJob):
                        call(handle.job_id)
                record = handle.status()
                assert record.status.terminal and handle.cancel() == record
                if record.status is JobStatus.SUCCEEDED:
                    assert json.loads(zlib.decompress(handle.result(0)))["files"]
                else:
                    with pytest.raises((ValueError, ServiceError)):
                        handle.result(0)
        finally:
            for _ in handles:
                release.release()
            manager.close()


def test_eviction_under_contention_keeps_the_held_bytes_of_the_table(monkeypatch):
    """Four workers finishing jobs submitted from four threads, with
    the interpreter switching threads as often as it can: the table
    ends with the bound's worth of jobs, and ``held_bytes`` is what
    those jobs hold, every evicted job's bytes taken off once."""
    monkeypatch.setattr(jobs_module, "FINISHED_JOBS_KEPT", 5)
    executor = JobExecutor(
        lambda request, sink: None, workers=4, hold=lambda job_id, report: job_id.encode(),
    )
    submitted = []

    def submitter():
        for _ in range(50):
            submitted.append(executor.submit(None))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        assert all(job.done.wait(30) for job in submitted)
    finally:
        sys.setswitchinterval(interval)
        executor.shutdown()
    kept = executor.jobs()
    assert len(submitted) == 200 and len(kept) == 5
    assert executor.held_bytes == sum(len(job.result) for job in kept) > 0
    assert executor.counts()["succeeded"] == 200


# -- Session.submit -----------------------------------------------------


def test_session_submit_returns_a_working_handle():
    with Session() as session:
        handle = session.submit(RunRequest("fig6", smoke=True))
        kinds = [type(event) for event in handle.events()]
        record = handle.status()
        report = handle.result(timeout=120)
    assert record.status is JobStatus.SUCCEEDED
    assert record.summary["executed_cells"] == report.executed_cells
    assert SuitePlanned in kinds and SuiteCompleted in kinds
    assert set(report.results) == {"fig6"}


def test_session_submit_validates_before_queueing():
    with Session() as session:
        with pytest.raises(UnknownExperiment):
            session.submit(RunRequest("not-an-experiment", smoke=True))


def test_session_submit_serializes_jobs_and_close_waits():
    with Session() as session:
        first = session.submit(RunRequest("fig6", smoke=True))
        second = session.submit(RunRequest("table5", smoke=True))
        report = second.result(timeout=240)
    assert first.status().status is JobStatus.SUCCEEDED
    assert set(report.results) == {"table5"}


def test_session_submit_result_timeout():
    with Session() as session:
        handle = session.submit(RunRequest("fig6", smoke=True))
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.0001)
        handle.result(timeout=120)  # and it still finishes
