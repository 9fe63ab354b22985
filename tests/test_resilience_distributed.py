"""Distributed-runtime robustness: a wedged straggler's chunk, graceful
drain, worker rejoin, failure-path event ordering, and poison aborts
that name the affected experiments.

Everything here drives a real SocketBackend fleet on loopback; the
invariant underneath each scenario is the usual one — the reassembled
results stay byte-identical to serial execution no matter what fails.
"""

import os
import socket
import threading
import time

import pytest

from repro.errors import BackendError
from repro.interop.runner import SIZE_10KB, Runner, Scenario
from repro.interop.scenarios import first_server_flight_tail_loss
from repro.quic.server import ServerMode
from repro.runtime import SocketBackend, worker_main
from repro.runtime.distributed import (
    MSG_CHUNK,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_RESULT,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.runtime.events import (
    ChunkCompleted,
    ChunkDispatched,
    WorkerDrained,
    WorkerJoined,
    WorkerLost,
)
from repro.runtime.suite import SuiteRunner
from repro.runtime.worker import run_cell_chunk
from tests.sweeps import start_worker_thread, sweep

LOSSY_IACK = Scenario(
    client="quic-go",
    mode=ServerMode.IACK,
    http="h1",
    rtt_ms=9.0,
    response_size=SIZE_10KB,
    server_to_client_loss=first_server_flight_tail_loss(ServerMode.IACK),
)


def hello(sock: socket.socket, host: str) -> None:
    send_frame(sock, MSG_HELLO, {"version": PROTOCOL_VERSION, "pid": 0, "host": host})


class EventLog:
    """Thread-safe event sink with convenience selectors."""

    def __init__(self):
        self._lock = threading.Lock()
        self._events = []

    def __call__(self, event):
        with self._lock:
            self._events.append(event)

    def of(self, kind):
        with self._lock:
            return [e for e in self._events if isinstance(e, kind)]

    def index(self, predicate):
        with self._lock:
            for i, event in enumerate(self._events):
                if predicate(event):
                    return i
        return None

    def snapshot(self):
        with self._lock:
            return list(self._events)


# -- a wedged straggler ---------------------------------------------------


def test_a_silent_stragglers_chunk_is_requeued_and_completes_once(chunk_cells):
    """A worker that wedges holding a chunk (socket alive, heartbeats
    flowing, no result) keeps that chunk as its one holder: no second
    copy is dispatched while it heartbeats. Once it goes silent it is
    dropped, the chunk's one later copy is the requeued one, and that
    copy completes the run with nothing double-counted."""
    events = EventLog()
    backend = SocketBackend(port=0, min_workers=2, heartbeat_timeout=0.6)
    backend.set_event_sink(events)
    taken = threading.Event()
    release = threading.Event()
    heartbeat_for = 1.5

    def straggler():
        sock = socket.create_connection((backend.host, backend.port))
        try:
            hello(sock, "straggler")
            recv_frame(sock)  # WELCOME
            recv_frame(sock)  # take a chunk and wedge, heartbeating a while
            taken.set()
            deadline = time.monotonic() + heartbeat_for
            while time.monotonic() < deadline and not release.wait(0.2):
                send_frame(sock, MSG_HEARTBEAT, None)
            release.wait(timeout=30)  # then say nothing
        except (ConnectionError, ProtocolError, OSError):
            pass
        finally:
            sock.close()

    threading.Thread(target=straggler, daemon=True).start()
    try:
        deadline = time.monotonic() + 10
        while backend.worker_count() < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        # heartbeats faster than the timeout keep the real worker alive
        start_worker_thread(backend, heartbeat_interval=0.2)
        serial = Runner().run_repetitions(LOSSY_IACK, repetitions=4)
        chunk_cells(1)
        started = time.monotonic()
        distributed = sweep(backend, LOSSY_IACK, 4)
        assert time.monotonic() - started > heartbeat_for  # the run waited it out
        assert taken.is_set()
        assert backend.stats.workers_lost >= 1
        assert backend.stats.chunks_requeued >= 1
        # Four chunks, and one more dispatch per requeue: no duplicate
        # was sent while the straggler still held its chunk.
        dispatched = events.of(ChunkDispatched)
        assert backend.stats.chunks_dispatched == len(dispatched)
        assert len(dispatched) == 4 + backend.stats.chunks_requeued
        assert len({e.chunk_id for e in dispatched}) == 4
        # first completion wins exactly once per chunk
        completed_ids = [e.chunk_id for e in events.of(ChunkCompleted)]
        assert sorted(completed_ids) == sorted(set(completed_ids))
        assert len(distributed) == 4  # no double-counted cells
        assert [r.client_stats for r in distributed] == [
            r.client_stats for r in serial
        ]
    finally:
        release.set()
        backend.close()


# -- graceful drain -----------------------------------------------------


def test_a_worker_still_dialing_drains_at_once():
    """The drain event (SIGTERM on ``repro worker``) reaches a worker
    that never connected: it stops dialing and exits 0 instead of
    finishing its window."""
    drain = threading.Event()
    exit_codes = []
    worker = threading.Thread(
        target=lambda: exit_codes.append(
            worker_main("127.0.0.1", 1, retry_for=60.0, drain_event=drain)
        ),
        daemon=True,
    )
    worker.start()
    time.sleep(0.3)
    assert worker.is_alive()  # still dialing
    drain.set()
    worker.join(timeout=2)
    assert not worker.is_alive()
    assert exit_codes == [0]


def test_worker_drain_leaves_fleet_without_loss_or_requeue():
    """A worker asked to drain (SIGTERM → drain_event) says goodbye via
    the DRAIN frame: WorkerDrained is emitted, nothing is counted lost
    or requeued, and the survivor still serves byte-identical runs."""
    events = EventLog()
    backend = SocketBackend(port=0, min_workers=2)
    backend.set_event_sink(events)
    drain = threading.Event()
    try:
        draining = start_worker_thread(backend, drain_event=drain)
        start_worker_thread(backend)
        backend.wait_for_workers(2, timeout=10)
        drain.set()
        draining.join(timeout=10)
        assert not draining.is_alive()
        deadline = time.monotonic() + 10
        while backend.worker_count() > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert backend.worker_count() == 1
        assert backend.stats.workers_drained == 1
        assert backend.stats.workers_lost == 0
        drained = events.of(WorkerDrained)
        assert [e.worker_id for e in drained] == [
            e.worker_id
            for e in events.of(WorkerJoined)
            if e.worker_id in {d.worker_id for d in drained}
        ]
        assert not events.of(WorkerLost)
        # the remaining worker carries a run on its own
        backend.min_workers = 1
        serial = Runner().run_repetitions(LOSSY_IACK, repetitions=2)
        distributed = sweep(backend, LOSSY_IACK, 2)
        assert [r.client_stats for r in distributed] == [
            r.client_stats for r in serial
        ]
    finally:
        backend.close()


# -- worker rejoin ------------------------------------------------------


def test_worker_rejoins_after_abrupt_connection_loss():
    """An abrupt coordinator-side connection loss (no SHUTDOWN, no
    DRAIN) sends the worker back to dialing for its ``retry_for``
    window: the same process joins again and the fleet keeps serving."""
    backend = SocketBackend(port=0, min_workers=1)
    joined = []
    backend.set_event_sink(
        lambda event: joined.append(event) if isinstance(event, WorkerJoined) else None
    )
    exit_codes = []
    worker = threading.Thread(
        target=lambda: exit_codes.append(
            worker_main(backend.host, backend.port, retry_for=20.0)
        ),
        daemon=True,
    )
    worker.start()
    try:
        backend.wait_for_workers(1, timeout=10)
        with backend._lock:
            victim_sock = next(iter(backend._workers.values())).sock
        victim_sock.close()  # abrupt: the worker sees a bare EOF
        deadline = time.monotonic() + 15
        while len(joined) < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert len(joined) == 2, "worker never rejoined after abrupt loss"
        assert joined[0].pid == joined[1].pid == os.getpid()
        assert joined[1].worker_id != joined[0].worker_id
        assert backend.stats.workers_lost >= 1
        serial = Runner().run_repetitions(LOSSY_IACK, repetitions=2)
        distributed = sweep(backend, LOSSY_IACK, 2)
        assert [r.client_stats for r in distributed] == [
            r.client_stats for r in serial
        ]
    finally:
        backend.close()
    worker.join(timeout=15)
    assert exit_codes == [0]  # the SHUTDOWN from close() ends it cleanly


# -- failure-path event ordering ----------------------------------------


def test_worker_lost_event_orders_before_requeued_chunk_dispatch(chunk_cells):
    """The WorkerLost event (carrying its requeued-chunk count) must be
    observable before the requeued twin's ChunkDispatched — operators
    watching the stream see cause before effect."""
    events = EventLog()
    backend = SocketBackend(port=0, min_workers=2)
    backend.set_event_sink(events)

    def doomed():
        sock = socket.create_connection((backend.host, backend.port))
        try:
            hello(sock, "doomed")
            recv_frame(sock)  # WELCOME
            recv_frame(sock)  # take the first chunk ...
        except (ConnectionError, ProtocolError, OSError):
            pass
        finally:
            sock.close()  # ... and die holding it

    threading.Thread(target=doomed, daemon=True).start()
    try:
        deadline = time.monotonic() + 10
        while backend.worker_count() < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        start_worker_thread(backend)
        serial = Runner().run_repetitions(LOSSY_IACK, repetitions=4)
        chunk_cells(1)
        distributed = sweep(backend, LOSSY_IACK, 4)
        lost = events.of(WorkerLost)
        assert len(lost) == 1 and lost[0].requeued_chunks == 1
        lost_at = events.index(lambda e: isinstance(e, WorkerLost))
        doomed_id = lost[0].worker_id
        log = events.snapshot()
        doomed_chunks = [
            e.chunk_id
            for e in log
            if isinstance(e, ChunkDispatched) and e.where == f"worker-{doomed_id}"
        ]
        assert len(doomed_chunks) == 1
        redispatches = [
            i
            for i, e in enumerate(log)
            if isinstance(e, ChunkDispatched)
            and e.chunk_id == doomed_chunks[0]
            and e.where != f"worker-{doomed_id}"
        ]
        assert redispatches and all(i > lost_at for i in redispatches)
        assert [r.client_stats for r in distributed] == [
            r.client_stats for r in serial
        ]
    finally:
        backend.close()


def test_duplicate_result_frames_emit_chunk_completed_once(chunk_cells):
    """A worker echoing the same RESULT twice (retransmit-happy or
    buggy) must not double-emit ChunkCompleted or double-record."""
    events = EventLog()
    backend = SocketBackend(port=0, min_workers=1)
    backend.set_event_sink(events)

    def echoing_worker():
        sock = socket.create_connection((backend.host, backend.port))
        try:
            hello(sock, "echo")
            while True:
                msg_type, payload = recv_frame(sock)
                if msg_type == MSG_WELCOME:
                    continue
                if msg_type != MSG_CHUNK:
                    return
                job_id, chunk_id, grouped, level = payload
                frame = (job_id, chunk_id, run_cell_chunk(grouped, level))
                send_frame(sock, MSG_RESULT, frame)
                send_frame(sock, MSG_RESULT, frame)  # duplicate echo
        except (ConnectionError, ProtocolError, OSError):
            pass
        finally:
            sock.close()

    threading.Thread(target=echoing_worker, daemon=True).start()
    try:
        serial = Runner().run_repetitions(LOSSY_IACK, repetitions=4)
        chunk_cells(2)
        distributed = sweep(backend, LOSSY_IACK, 4)
        completed_ids = [e.chunk_id for e in events.of(ChunkCompleted)]
        assert sorted(completed_ids) == [0, 1]  # one completion per chunk
        assert len(distributed) == 4
        assert [r.client_stats for r in distributed] == [
            r.client_stats for r in serial
        ]
    finally:
        backend.close()


# -- poison aborts name their experiments -------------------------------


def poisoned_suite_error(experiment):
    """The error of a smoke suite whose every worker dies holding its
    chunk, until the retry bound gives up."""
    backend = SocketBackend(port=0, min_workers=1, worker_wait_timeout=10.0)
    stop = threading.Event()

    def doomed_worker():
        sock = socket.create_connection((backend.host, backend.port))
        try:
            hello(sock, "doom")
            recv_frame(sock)  # WELCOME
            recv_frame(sock)  # take the chunk, then die holding it
        except (ConnectionError, ProtocolError, OSError):
            pass
        finally:
            sock.close()

    def keep_spawning():
        while not stop.is_set():
            doomed_worker()

    threading.Thread(target=keep_spawning, daemon=True).start()
    try:
        runner = SuiteRunner(backend=backend)
        with pytest.raises(BackendError, match="giving up") as excinfo:
            runner.run([experiment], smoke=True)
        return str(excinfo.value)
    finally:
        stop.set()
        backend.close()


def test_poison_abort_names_the_affected_experiments():
    """When a chunk exhausts its retry bound, the BackendError that
    surfaces through SuiteRunner must name the experiment ids whose
    cells it carried, not just an opaque chunk id."""
    assert "experiments affected: fig6" in poisoned_suite_error("fig6")


def test_poison_abort_maps_observed_cells_back_to_their_experiments():
    """fig16's cells travel wrapped in an ObservedCell; the poison
    chunk carries the wrappers, and they still name fig16."""
    assert "experiments affected: fig16" in poisoned_suite_error("fig16")
