"""Adaptive chunk sizing and the slow-link send-deadline fix.

Two properties carry the file:

* chunk sizes track per-worker throughput (a 5× speed skew must yield
  visibly skewed chunks) while results stay index-exact;
* a slow-but-alive worker receiving a large CHUNK frame is never
  misclassified as lost mid-transfer (the send deadline is size-aware
  and independent of ``heartbeat_timeout``).
"""

import socket
import threading
import time

from repro.interop.runner import SIZE_10KB, Runner, Scenario
from repro.quic.server import ServerMode
from repro.runtime import SocketBackend, scheduler, worker_main
from repro.runtime.distributed import (
    MSG_CHUNK,
    MSG_WELCOME,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_RESULT,
    PROTOCOL_VERSION,
    send_frame,
)
from repro.runtime.events import ChunkCompleted, ChunkDispatched, WorkerJoined
from repro.runtime.worker import run_cell_chunk
from repro.sim.loss import IndexedLoss
from tests.sweeps import start_worker_thread, sweep
from tests.test_distributed import LOSSY_IACK


def _recv_paced(sock, nbytes, piece, pause):
    """Read exactly ``nbytes``, at most ``piece`` at a time with
    ``pause`` between reads — a throttled link in miniature."""
    buf = bytearray()
    while len(buf) < nbytes:
        data = sock.recv(min(piece, nbytes - len(buf)))
        if not data:
            raise ConnectionError("closed mid-frame")
        buf += data
        time.sleep(pause)
    return bytes(buf)


def _hello(sock, host):
    send_frame(sock, MSG_HELLO, {"version": PROTOCOL_VERSION, "pid": 0, "host": host})


def _heartbeat_forever(sock, lock, stop, interval=0.1):
    def beat():
        while not stop.wait(interval):
            try:
                send_frame(sock, MSG_HEARTBEAT, None, lock=lock)
            except OSError:
                return

    threading.Thread(target=beat, daemon=True).start()


# -- slow-link send deadline (regression: distributed.py:72-74) ---------


def test_slow_link_worker_survives_chunk_larger_than_heartbeat_window(chunk_cells):
    """A worker on a throttled link that needs longer than
    ``heartbeat_timeout`` to *receive* its chunk must not be dropped and
    requeued as if it died: it heartbeats throughout, and the CHUNK send
    runs under its own size-aware deadline, not the liveness timeout."""
    import struct

    from repro.runtime.distributed import _HEADER

    # A scenario whose pickled form is a few hundred KB: the loss
    # pattern's index set dominates the CHUNK frame.
    big = Scenario(
        client="quic-go",
        mode=ServerMode.IACK,
        http="h1",
        rtt_ms=9.0,
        response_size=SIZE_10KB,
        server_to_client_loss=IndexedLoss(range(1000, 70000)),
    )
    backend = SocketBackend(port=0, min_workers=1, heartbeat_timeout=0.8)
    # Shrink the coordinator's send buffer (inherited by accepted
    # sockets) so the transfer genuinely trickles instead of vanishing
    # into kernel buffers.
    backend._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
    stop = threading.Event()

    def throttled_worker():
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
        sock.connect((backend.host, backend.port))
        lock = threading.Lock()
        try:
            _hello(sock, "throttled")
            _heartbeat_forever(sock, lock, stop)
            while not stop.is_set():
                header = _recv_paced(sock, _HEADER.size, 8192, 0)
                _magic, msg_type, length = _HEADER.unpack(header)
                # ~8 KB per 40 ms: a ~300 KB frame takes >1.5 s, well
                # past the 0.8 s heartbeat timeout.
                payload = _recv_paced(sock, length, 8192, 0.04)
                if msg_type == MSG_WELCOME:
                    continue
                if msg_type != MSG_CHUNK:
                    return
                from repro.runtime.wire import decode_payload

                (job_id, chunk_id, grouped, level), _ = decode_payload(payload)
                results = run_cell_chunk(grouped, level)
                send_frame(sock, MSG_RESULT, (job_id, chunk_id, results), lock=lock)
        except (ConnectionError, OSError, struct.error):
            pass
        finally:
            sock.close()

    threading.Thread(target=throttled_worker, daemon=True).start()
    try:
        serial = Runner().run_repetitions(big, repetitions=2)
        chunk_cells(2)
        distributed = sweep(backend, big, 2)
        assert backend.stats.workers_lost == 0
        assert backend.stats.chunks_requeued == 0
        assert [r.client_stats for r in distributed] == [r.client_stats for r in serial]
    finally:
        stop.set()
        backend.close()


# -- adaptive chunk sizing ----------------------------------------------


def _skewed_worker(backend, host, delay_per_cell, stop):
    """A protocol-speaking worker whose only work is sleeping
    ``delay_per_cell`` per cell — a deterministic throughput."""
    sock = socket.create_connection((backend.host, backend.port))
    lock = threading.Lock()
    try:
        _hello(sock, host)
        _heartbeat_forever(sock, lock, stop)
        from repro.runtime.distributed import recv_frame

        while not stop.is_set():
            msg_type, payload = recv_frame(sock)
            if msg_type == MSG_WELCOME:
                continue
            if msg_type != MSG_CHUNK:
                return
            job_id, chunk_id, grouped, _level = payload
            indices = [i for _scenario, pairs in grouped for i, _seed in pairs]
            time.sleep(len(indices) * delay_per_cell)
            results = [(i, "r") for i in indices]
            send_frame(sock, MSG_RESULT, (job_id, chunk_id, results), lock=lock)
    except (ConnectionError, OSError):
        pass
    finally:
        sock.close()


def test_adaptive_sizing_converges_under_5x_speed_skew(monkeypatch):
    """With one worker 5× slower than the other, the coordinator must
    grow the fast worker's chunks past the opening size and shrink the
    slow worker's below it — instead of throttling the fleet to
    fleet-average chunks — while still returning every cell exactly
    once."""
    monkeypatch.setattr(scheduler, "TARGET_CHUNK_SECONDS", 0.25)
    monkeypatch.setattr(scheduler, "MAX_CHUNK_CELLS", 400)
    backend = SocketBackend(port=0, min_workers=2)
    events = []
    backend.set_event_sink(events.append)
    stop = threading.Event()
    threading.Thread(
        target=_skewed_worker, args=(backend, "fast", 0.002, stop), daemon=True
    ).start()
    threading.Thread(
        target=_skewed_worker, args=(backend, "slow", 0.010, stop), daemon=True
    ).start()
    scenario = Scenario()
    cells = [(i, scenario, i) for i in range(600)]
    try:
        results = backend.run_cells(cells)
    finally:
        stop.set()
        backend.close()
    assert sorted(i for i, _r in results) == list(range(600))
    assert all(r == "r" for _i, r in results)
    assert backend.stats.workers_lost == 0

    host_of = {
        f"worker-{e.worker_id}": e.host for e in events if isinstance(e, WorkerJoined)
    }
    sizes = {"fast": [], "slow": []}
    for event in events:
        if isinstance(event, ChunkDispatched):
            sizes[host_of[event.where]].append(event.cells)
    # Opening chunks deal each of the 2 workers a quarter share:
    # ceil(600 / (2 * 4)) = 75 cells.
    assert sizes["fast"][0] == 75 and sizes["slow"][0] == 75
    # The fast worker's chunks grow well past the opening size; the
    # slow worker's never do (they shrink toward rate × budget ≈ 25).
    assert max(sizes["fast"]) >= 100, sizes
    assert max(sizes["slow"]) <= 75, sizes
    assert min(sizes["slow"][1:]) < 75, sizes
    # And the fast worker carried the bulk of the pool.
    assert sum(sizes["fast"]) > 2 * sum(sizes["slow"]), sizes


def _sleeping_fleet(backend, stop, workers=2, delay_per_cell=0.002):
    for n in range(workers):
        threading.Thread(
            target=_skewed_worker,
            args=(backend, f"w{n}", delay_per_cell, stop),
            daemon=True,
        ).start()


def test_batch_below_one_time_budget_is_shared_by_both_warmed_workers():
    """A warmed worker's wall-clock budget (~500 cells here) dwarfs a
    64-cell pool; sized by the budget alone the whole pool went to
    whichever worker asked first and the other idled through the
    job. Each idle worker must get its share instead."""
    backend = SocketBackend(port=0, min_workers=2)
    events = []
    stop = threading.Event()
    _sleeping_fleet(backend, stop)
    scenario = Scenario()
    try:
        # Warm-up: both workers take an opening chunk and seed an EWMA.
        backend.run_cells([(i, scenario, i) for i in range(64)])
        dispatched_before = backend.stats.chunks_dispatched
        backend.set_event_sink(events.append)
        results = backend.run_cells([(i, scenario, i) for i in range(64)])
    finally:
        stop.set()
        backend.close()
    assert sorted(i for i, _r in results) == list(range(64))
    completed = [e for e in events if isinstance(e, ChunkCompleted)]
    assert {e.where for e in completed} == {"worker-1", "worker-2"}
    # One rate-proportional share each; the two sleep at the same pace.
    sizes = sorted(e.cells for e in completed)
    assert len(sizes) == 2 and sum(sizes) == 64 and sizes[0] >= 16, sizes
    assert backend.stats.chunks_dispatched - dispatched_before == 2
    assert backend.stats.workers_used == 2
    assert all(isinstance(v, int) for v in backend.stats.to_dict().values())


def test_run_cells_returns_only_after_every_chunk_was_observed():
    """The last chunk's observer call (the result store's write)
    runs on a reader thread after the chunk is *recorded*; a job that
    returned at that point let its caller swap the observer out from
    under the write, and the final cells were never stored."""
    backend = SocketBackend(port=0, min_workers=2)
    observed = []

    def slow_observer(results):
        time.sleep(0.2)
        observed.extend(index for index, _artifacts in results)

    backend.set_result_observer(slow_observer)
    stop = threading.Event()
    _sleeping_fleet(backend, stop)
    scenario = Scenario()
    try:
        results = backend.run_cells([(i, scenario, i) for i in range(8)])
        seen_at_return = sorted(observed)
    finally:
        stop.set()
        backend.close()
    assert sorted(i for i, _r in results) == list(range(8))
    assert seen_at_return == list(range(8))


def test_adaptive_distributed_matches_serial_with_real_workers():
    """End to end on real ``worker_main`` workers (adaptive sizing on,
    the default): stats must be bit-identical to serial execution."""
    backend = SocketBackend(port=0, min_workers=2)
    try:
        for _ in range(2):
            start_worker_thread(backend)
        serial = Runner().run_repetitions(LOSSY_IACK, repetitions=8)
        distributed = sweep(backend, LOSSY_IACK, 8)
        assert [r.client_stats for r in distributed] == [r.client_stats for r in serial]
        assert [r.seed for r in distributed] == [r.seed for r in serial]
    finally:
        backend.close()


def test_worker_main_cache_entries_zero_still_serves(tmp_path):
    """A bare ``worker_main`` keeps no results between chunks (every
    worker runs with zero cache entries), sends three-field RESULT
    frames and completes jobs normally."""
    backend = SocketBackend(port=0, min_workers=1)
    try:
        thread = threading.Thread(
            target=worker_main,
            args=(backend.host, backend.port),
            kwargs={"retry_for": 5.0},
            daemon=True,
        )
        thread.start()
        serial = Runner().run_repetitions(LOSSY_IACK, repetitions=3)
        distributed = sweep(backend, LOSSY_IACK, 3)
        assert [r.client_stats for r in distributed] == [r.client_stats for r in serial]
        assert backend.stats.protocol_errors == 0
    finally:
        backend.close()
