"""Distributed execution backend: wire protocol, worker-loss requeue,
and bit-identical reassembly.

The load-bearing property mirrors the runtime suite: results of a
distributed run must be byte-identical to local execution no matter
how chunks interleave across workers, which workers die mid-chunk, or
what garbage third parties write at the coordinator port.
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.api import LocalConfig, Session
from repro.cli import main, parse_address, resolve_auth_key
from repro.errors import BackendError
from repro.interop.runner import SIZE_10KB, Runner, Scenario
from repro.interop.scenarios import first_server_flight_tail_loss
from repro.quic.server import ServerMode
from repro.runtime import ArtifactLevel, LocalBackend, SocketBackend, distributed, worker_main
from repro.runtime.distributed import (
    MSG_CHUNK,
    MSG_ERROR,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_RESULT,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    ProtocolError,
    authenticate_client,
    authenticate_server,
    recv_frame,
    send_frame,
)
from repro.runtime.events import ChunkCompleted, ChunkDispatched, WorkerJoined
from tests.sweeps import fault_worker, spawn_worker_process, start_worker_thread, sweep

LOSSY_IACK = Scenario(
    client="quic-go",
    mode=ServerMode.IACK,
    http="h1",
    rtt_ms=9.0,
    response_size=SIZE_10KB,
    server_to_client_loss=first_server_flight_tail_loss(ServerMode.IACK),
)


# -- wire protocol ------------------------------------------------------


def test_frame_round_trip():
    left, right = socket.socketpair()
    try:
        payload = {"version": PROTOCOL_VERSION, "pid": 42}
        send_frame(left, MSG_HELLO, payload)
        msg_type, received = recv_frame(right)
        assert msg_type == MSG_HELLO
        assert received == payload
    finally:
        left.close()
        right.close()


def test_send_frame_refuses_oversized_payload(monkeypatch):
    monkeypatch.setattr(distributed, "MAX_FRAME_BYTES", 64)
    left, right = socket.socketpair()
    try:
        with pytest.raises(ProtocolError, match="exceeds"):
            send_frame(left, MSG_RESULT, b"x" * 1024)
    finally:
        left.close()
        right.close()


def test_recv_frame_rejects_oversized_announcement(monkeypatch):
    """A header announcing more bytes than the bound is refused before
    any payload is buffered."""
    monkeypatch.setattr(distributed, "MAX_FRAME_BYTES", 1024)
    left, right = socket.socketpair()
    try:
        left.sendall(struct.pack(">4sBI", b"RPRO", MSG_RESULT, 2**31))
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_recv_frame_rejects_bad_magic_and_garbage_payload():
    left, right = socket.socketpair()
    try:
        left.sendall(b"GARBAGE..")
        with pytest.raises(ProtocolError, match="magic"):
            recv_frame(right)
    finally:
        left.close()
        right.close()
    left, right = socket.socketpair()
    try:
        left.sendall(struct.pack(">4sBI", b"RPRO", MSG_HELLO, 4) + b"\xff\xff\xff\xff")
        with pytest.raises(ProtocolError, match="undecodable"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


# -- authentication -----------------------------------------------------


UNPICKLED_BY_SERVER = []


def _record_unpickle():
    UNPICKLED_BY_SERVER.append("payload was unpickled")


class _PoisonPayload:
    """Stands in for a pickle that executes code on load: loading it
    leaves a trace the test can assert never appeared."""

    def __reduce__(self):
        return (_record_unpickle, ())


def test_auth_handshake_mutual_success_and_wrong_key():
    key = b"handshake-secret"

    def run_pair(server_key, client_key):
        left, right = socket.socketpair()
        outcome = {}

        def server_side():
            try:
                authenticate_server(left, server_key)
                outcome["server"] = "ok"
            except ProtocolError as exc:
                outcome["server"] = exc

        thread = threading.Thread(target=server_side, daemon=True)
        thread.start()
        try:
            authenticate_client(right, client_key)
            outcome["client"] = "ok"
        except ProtocolError as exc:
            outcome["client"] = exc
        thread.join(timeout=5)
        left.close()
        right.close()
        return outcome

    assert run_pair(key, key) == {"server": "ok", "client": "ok"}
    mismatched = run_pair(key, b"not-the-secret")
    assert isinstance(mismatched["server"], ProtocolError)
    assert isinstance(mismatched["client"], ProtocolError)


def test_unauthenticated_frame_never_reaches_unpickle():
    """With auth enabled, a peer that skips the handshake and throws a
    pickled frame at the port is dropped before pickle.loads runs —
    the pre-unpickle guarantee that makes the port safe to expose."""
    UNPICKLED_BY_SERVER.clear()
    backend = SocketBackend(port=0, min_workers=1, auth_key=b"secret")
    try:
        sock = socket.create_connection((backend.host, backend.port))
        send_frame(sock, MSG_HELLO, _PoisonPayload())
        sock.close()
        deadline = time.monotonic() + 5
        while backend.stats.protocol_errors < 1 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert backend.stats.protocol_errors >= 1
        assert backend.worker_count() == 0
        assert UNPICKLED_BY_SERVER == []
    finally:
        backend.close()


def test_wrong_key_worker_rejected_and_right_key_fleet_runs(chunk_cells):
    key = b"fleet-secret"
    backend = SocketBackend(port=0, min_workers=1, auth_key=key)
    exit_codes = []
    try:
        rejected = threading.Thread(
            target=lambda: exit_codes.append(
                worker_main(
                    backend.host, backend.port,
                    retry_for=5.0, auth_key=b"not-the-secret",
                )
            ),
            daemon=True,
        )
        rejected.start()
        rejected.join(timeout=10)
        assert not rejected.is_alive()
        assert exit_codes == [1]
        # The coordinator's thread counts the rejection; nothing orders
        # that after the worker's exit, so wait for it (bounded).
        with backend._cond:
            assert backend._cond.wait_for(lambda: backend.stats.auth_failures >= 1, timeout=10)
        assert backend.worker_count() == 0
        assert backend.stats.protocol_errors >= 1
        # the authenticated fleet still produces bit-identical results
        start_worker_thread(backend, auth_key=key)
        serial = Runner().run_repetitions(LOSSY_IACK, repetitions=4)
        chunk_cells(2)
        distributed = sweep(backend, LOSSY_IACK, 4)
        assert [r.client_stats for r in distributed] == [
            r.client_stats for r in serial
        ]
    finally:
        backend.close()


def test_keyed_worker_times_out_promptly_against_keyless_coordinator(monkeypatch):
    """The reverse misconfiguration: a keyed worker dialing a keyless
    coordinator (which silently waits for HELLO) must diagnose the key
    asymmetry after the auth timeout, not stall behind a generic
    connection error."""
    import repro.runtime.distributed as dist

    monkeypatch.setattr(dist, "DEFAULT_AUTH_TIMEOUT", 0.5)
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()[:2]
    accepted = []

    def silent_coordinator():
        conn, _ = listener.accept()
        accepted.append(conn)  # keyless: waits for HELLO, sends nothing

    threading.Thread(target=silent_coordinator, daemon=True).start()
    messages = []
    try:
        code = worker_main(
            host, port, retry_for=5.0, auth_key=b"secret",
            log=messages.append,
        )
        assert code == 1
        assert any("timed out waiting for a challenge" in m for m in messages)
    finally:
        listener.close()
        for conn in accepted:
            conn.close()


def test_socketbackend_refuses_nonloopback_bind_without_key():
    with pytest.raises(ValueError, match="auth key is required"):
        SocketBackend(host="0.0.0.0", port=0)
    # "" binds INADDR_ANY too — it must not pass as loopback
    with pytest.raises(ValueError, match="auth key is required"):
        SocketBackend(host="", port=0)
    backend = SocketBackend(host="0.0.0.0", port=0, auth_key=b"secret")
    backend.close()


def test_asymmetric_auth_config_yields_actionable_errors():
    """The two halves of a fleet misconfiguration are both diagnosed:
    a keyless side receiving a challenge, and a keyed side receiving a
    plain frame, each name the auth-key mismatch instead of stalling
    or reporting garbage magic."""
    left, right = socket.socketpair()

    def challenging_server():
        try:
            authenticate_server(left, b"secret")
        except (ProtocolError, ConnectionError, OSError):
            pass  # the keyless peer bails out mid-handshake

    try:
        thread = threading.Thread(target=challenging_server, daemon=True)
        thread.start()
        with pytest.raises(ProtocolError, match="no auth key"):
            recv_frame(right)  # keyless peer meets a challenge
    finally:
        left.close()
        right.close()
    thread.join(timeout=5)
    left, right = socket.socketpair()
    try:
        send_frame(left, MSG_HELLO, {"version": PROTOCOL_VERSION})
        with pytest.raises(ProtocolError, match="no auth key configured"):
            authenticate_client(right, b"secret")  # keyed peer meets a frame
    finally:
        left.close()
        right.close()


def test_resolve_auth_key(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_AUTH_KEY", raising=False)
    assert resolve_auth_key(None) is None
    monkeypatch.setenv("REPRO_AUTH_KEY", "env-secret\n")
    assert resolve_auth_key(None) == b"env-secret"  # stripped like a file
    key_file = tmp_path / "auth.key"
    key_file.write_text("file-secret\n")
    assert resolve_auth_key(str(key_file)) == b"file-secret"  # file wins
    empty = tmp_path / "empty.key"
    empty.write_text(" \n")
    with pytest.raises(SystemExit, match="empty"):
        resolve_auth_key(str(empty))
    with pytest.raises(SystemExit, match="not found"):
        resolve_auth_key(str(tmp_path / "missing.key"))


def test_parse_address(capsys):
    assert parse_address("127.0.0.1:7431") == ("127.0.0.1", 7431)
    assert parse_address("[::1]:7431") == ("::1", 7431)
    for bad, says in (("7431", "HOST:PORT"), ("host:notaport", "numeric"), ("host:99999", "range")):
        with pytest.raises(SystemExit) as excinfo:
            parse_address(bad)
        assert excinfo.value.code == 2  # a usage error, not a crash
        assert says in capsys.readouterr().err


# -- LocalBackend -------------------------------------------------------


def test_explicit_local_backend_matches_serial_and_stays_open():
    serial = Runner().run_repetitions(LOSSY_IACK, repetitions=6)
    with LocalBackend(workers=2) as backend:
        routed = sweep(backend, LOSSY_IACK, 6)
        # a sweep never closes a caller-owned backend
        assert backend._executor is not None
        again = sweep(backend, LOSSY_IACK, 6)
    for expected, actual in zip(serial, routed):
        assert actual.client_stats == expected.client_stats
        assert actual.duration_ms == expected.duration_ms
    assert [r.client_stats for r in again] == [r.client_stats for r in routed]


def test_full_artifacts_run_in_process_on_any_backend():
    """A ``full`` cell keeps live endpoints, so it runs in the calling
    process whatever the session's backend is."""
    serial = Runner().run_once(LOSSY_IACK, seed=0)
    for workers in (0, 2):
        with Session(LocalConfig(workers=workers)) as session:
            art = session.run_once(LOSSY_IACK, artifact_level="full")
        assert art.level is ArtifactLevel.FULL and art.scenario is LOSSY_IACK
        assert art.result.client is not None and art.result.server is not None
        assert art.result.client_stats == art.client_stats == serial.client_stats


# -- SocketBackend ------------------------------------------------------


def test_distributed_run_bit_identical_to_serial(chunk_cells):
    serial = Runner().run_repetitions(LOSSY_IACK, repetitions=8)
    backend = SocketBackend(port=0, min_workers=2)
    try:
        for _ in range(2):
            start_worker_thread(backend)
        chunk_cells(2)
        distributed = sweep(backend, LOSSY_IACK, 8)
    finally:
        backend.close()
    assert len(distributed) == len(serial)
    for expected, actual in zip(serial, distributed):
        assert actual.seed == expected.seed
        assert actual.client_stats == expected.client_stats
        assert actual.server_stats == expected.server_stats
        assert actual.duration_ms == expected.duration_ms
        assert actual.scenario is LOSSY_IACK
    assert backend.stats.chunks_dispatched == 4
    assert backend.stats.chunks_requeued == 0


def test_killed_worker_chunk_requeued_and_stats_bit_identical(chunk_cells):
    """SIGKILL-equivalent worker death mid-suite: its in-flight chunk
    must be requeued to the survivors and the reassembled stats must
    match serial execution bit for bit."""
    serial = Runner().run_repetitions(LOSSY_IACK, repetitions=12)
    backend = SocketBackend(port=0, min_workers=2)
    procs = []
    try:
        # --kill-after 0 hard-exits (os._exit) on receiving its first
        # chunk, leaving it unacknowledged.
        procs.append(spawn_worker_process(backend, "--kill-after", "0"))
        procs.append(spawn_worker_process(backend))
        chunk_cells(3)
        distributed = sweep(backend, LOSSY_IACK, 12)
    finally:
        backend.close()
        for proc in procs:
            proc.wait(timeout=30)
    assert procs[0].returncode == 17  # the harness's kill fired
    assert backend.stats.workers_lost >= 1
    assert backend.stats.chunks_requeued >= 1
    for expected, actual in zip(serial, distributed):
        assert actual.seed == expected.seed
        assert actual.client_stats == expected.client_stats
        assert actual.server_stats == expected.server_stats


def test_throttled_worker_delivers_bit_identical_stats(chunk_cells, monkeypatch):
    """A worker whose uplink is throttled (the fault harness's
    ``slow_send``) trickles its RESULT frames and still delivers the
    serial stats, each chunk dispatched once."""
    serial = Runner().run_repetitions(LOSSY_IACK, repetitions=4)
    events = []
    faults = fault_worker.Faults(slow_send=2_000_000)
    faults.install(monkeypatch.setattr)
    backend = SocketBackend(port=0, min_workers=1)
    backend.set_event_sink(events.append)
    try:
        start_worker_thread(backend)
        chunk_cells(2)
        throttled = sweep(backend, LOSSY_IACK, 4)
    finally:
        backend.close()
    assert [a.client_stats for a in throttled] == [e.client_stats for e in serial]
    assert [a.server_stats for a in throttled] == [e.server_stats for e in serial]
    dispatched = [e.chunk_id for e in events if isinstance(e, ChunkDispatched)]
    assert dispatched and len(dispatched) == len(set(dispatched))
    # the throttle engaged: each RESULT went out in several slices
    assert faults.fired == {"slow_send"}
    assert faults.slices > len(dispatched)


def test_silent_worker_dropped_by_heartbeat_timeout(chunk_cells):
    """A worker that goes silent (no heartbeats, socket still open)
    must be declared lost after heartbeat_timeout and its chunk served
    by the remaining worker, each chunk completing once."""
    events = []
    backend = SocketBackend(port=0, min_workers=2, heartbeat_timeout=0.6)
    backend.set_event_sink(events.append)
    mute_ready = threading.Event()
    release = threading.Event()

    def mute_worker():
        sock = socket.create_connection((backend.host, backend.port))
        try:
            send_frame(sock, MSG_HELLO, {"version": PROTOCOL_VERSION, "pid": 0, "host": "mute"})
            recv_frame(sock)  # WELCOME
            recv_frame(sock)  # swallow one chunk, then say nothing
            mute_ready.set()
            release.wait(timeout=30)
        finally:
            sock.close()

    threading.Thread(target=mute_worker, daemon=True).start()
    try:
        # heartbeats faster than the timeout keep the real worker alive
        start_worker_thread(backend, heartbeat_interval=0.2)
        serial = Runner().run_repetitions(LOSSY_IACK, repetitions=4)
        chunk_cells(1)
        distributed = sweep(backend, LOSSY_IACK, 4)
        assert mute_ready.is_set()
        assert backend.stats.chunks_requeued >= 1
        assert backend.stats.workers_lost >= 1
        completed = [e.chunk_id for e in events if isinstance(e, ChunkCompleted)]
        assert len(completed) == len(set(completed))  # each chunk completes once
        assert [r.client_stats for r in distributed] == [
            r.client_stats for r in serial
        ]
    finally:
        release.set()
        backend.close()


def test_corrupt_frame_drops_worker_and_requeues_its_chunk(chunk_cells):
    """A worker that answers its chunk with bytes that are no frame is
    a protocol error: the coordinator drops it, requeues the chunk, and
    a real worker completes every chunk once, with the serial stats."""
    events = []
    backend = SocketBackend(port=0, min_workers=2)
    backend.set_event_sink(events.append)
    corrupted = threading.Event()

    def corrupting_worker():
        sock = socket.create_connection((backend.host, backend.port))
        try:
            send_frame(sock, MSG_HELLO, {"version": PROTOCOL_VERSION, "pid": 0, "host": "bogus"})
            recv_frame(sock)  # WELCOME
            recv_frame(sock)  # take one chunk, answer it with garbage
            sock.sendall(b"BOGUSFRAMEBYTES!")
            corrupted.set()
            recv_frame(sock)  # blocks until the server hangs up on us
        except (ConnectionError, ProtocolError, OSError):
            pass
        finally:
            sock.close()

    threading.Thread(target=corrupting_worker, daemon=True).start()
    try:
        deadline = time.monotonic() + 10
        while backend.worker_count() < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        start_worker_thread(backend)
        serial = Runner().run_repetitions(LOSSY_IACK, repetitions=4)
        chunk_cells(1)
        distributed = sweep(backend, LOSSY_IACK, 4)
    finally:
        backend.close()
    assert corrupted.is_set()
    assert backend.stats.workers_lost == 1
    assert backend.stats.protocol_errors >= 1
    assert backend.stats.chunks_requeued >= 1
    bogus = {e.worker_id for e in events if isinstance(e, WorkerJoined) and e.host == "bogus"}
    assert len(bogus) == 1
    completed = [e for e in events if isinstance(e, ChunkCompleted)]
    dispatched = {e.chunk_id for e in events if isinstance(e, ChunkDispatched)}
    assert sorted(e.chunk_id for e in completed) == sorted(dispatched)
    assert all(e.where != f"worker-{wid}" for e in completed for wid in bogus)
    assert [r.client_stats for r in distributed] == [r.client_stats for r in serial]
    assert [r.server_stats for r in distributed] == [r.server_stats for r in serial]


def test_all_workers_lost_aborts_naming_outstanding_cells(chunk_cells):
    """A fleet whose only worker takes a chunk and closes, and that no
    worker rejoins within ``worker_wait_timeout``, aborts the run with
    the count of cells still outstanding."""
    backend = SocketBackend(port=0, min_workers=1, worker_wait_timeout=0.5)

    def vanishing_worker():
        sock = socket.create_connection((backend.host, backend.port))
        try:
            send_frame(sock, MSG_HELLO, {"version": PROTOCOL_VERSION, "pid": 0, "host": "gone"})
            recv_frame(sock)  # WELCOME
            recv_frame(sock)  # take one chunk, then close
        finally:
            sock.close()

    worker = threading.Thread(target=vanishing_worker, daemon=True)
    worker.start()
    try:
        backend.wait_for_workers(1, timeout=10)
        chunk_cells(2)
        with pytest.raises(BackendError, match=r"all workers lost with 4 cell\(s\) outstanding"):
            sweep(backend, LOSSY_IACK, 4)
        assert backend.stats.workers_lost == 1
        assert backend.stats.chunks_requeued == 1
    finally:
        backend.close()
        worker.join(timeout=10)


def test_malformed_and_non_hello_connections_are_dropped_not_fatal():
    backend = SocketBackend(port=0, min_workers=1)
    try:
        # garbage bytes at the port
        sock = socket.create_connection((backend.host, backend.port))
        sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
        sock.close()
        # a valid frame that is not a HELLO
        sock = socket.create_connection((backend.host, backend.port))
        send_frame(sock, MSG_HEARTBEAT, None)
        sock.close()
        deadline = time.monotonic() + 5
        while backend.stats.protocol_errors < 1 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert backend.stats.protocol_errors >= 1
        assert backend.worker_count() == 0
        # the backend still serves real workers afterwards
        start_worker_thread(backend)
        serial = Runner().run_repetitions(LOSSY_IACK, repetitions=2)
        distributed = sweep(backend, LOSSY_IACK, 2)
        assert [r.client_stats for r in distributed] == [
            r.client_stats for r in serial
        ]
    finally:
        backend.close()


def test_result_with_out_of_range_chunk_id_drops_worker_not_job(chunk_cells):
    """A buggy worker echoing a chunk id the job never dispatched must
    not be recorded (it would make done() true with real chunks
    missing); the echo is a protocol error, the worker is dropped, and
    its real chunk is requeued to the honest fleet."""
    backend = SocketBackend(port=0, min_workers=2)

    def lying_worker():
        sock = socket.create_connection((backend.host, backend.port))
        try:
            send_frame(sock, MSG_HELLO, {"version": PROTOCOL_VERSION, "pid": 0, "host": "liar"})
            recv_frame(sock)  # WELCOME
            _, payload = recv_frame(sock)
            job_id = payload[0]
            send_frame(sock, MSG_RESULT, (job_id, 999_999, [(0, "bogus")]))
            recv_frame(sock)  # blocks until the server hangs up on us
        except (ConnectionError, ProtocolError, OSError):
            pass
        finally:
            sock.close()

    threading.Thread(target=lying_worker, daemon=True).start()
    try:
        start_worker_thread(backend)
        serial = Runner().run_repetitions(LOSSY_IACK, repetitions=4)
        chunk_cells(1)
        distributed = sweep(backend, LOSSY_IACK, 4)
        assert backend.stats.protocol_errors >= 1
        assert backend.stats.chunks_requeued >= 1
        assert [r.client_stats for r in distributed] == [
            r.client_stats for r in serial
        ]
    finally:
        backend.close()


def test_remote_chunk_error_aborts_with_traceback():
    """A chunk that raises on the worker is deterministic; the run
    aborts with the remote error instead of requeueing forever."""
    backend = SocketBackend(port=0, min_workers=1)

    def erroring_worker():
        sock = socket.create_connection((backend.host, backend.port))
        try:
            send_frame(sock, MSG_HELLO, {"version": PROTOCOL_VERSION, "pid": 0, "host": "err"})
            while True:
                msg_type, payload = recv_frame(sock)
                if msg_type == MSG_WELCOME:
                    continue
                if msg_type != MSG_CHUNK:
                    return
                send_frame(
                    sock,
                    MSG_ERROR,
                    {
                        "job_id": payload[0],
                        "chunk_id": payload[1],
                        "error": "ValueError('boom')",
                        "traceback": "Traceback: boom",
                    },
                )
        except (ConnectionError, ProtocolError, OSError):
            pass
        finally:
            sock.close()

    threading.Thread(target=erroring_worker, daemon=True).start()
    try:
        with pytest.raises(RuntimeError, match="boom"):
            sweep(backend, LOSSY_IACK, 2)
    finally:
        backend.close()


def test_stale_frames_from_aborted_job_are_discarded():
    """A backend reused after an aborted run must ignore late RESULT /
    ERROR frames tagged with the dead job's id instead of grafting
    old-plan cells into (or spuriously failing) the new job."""
    from repro.runtime.worker import run_cell_chunk

    backend = SocketBackend(port=0, min_workers=1)

    def tricky_worker():
        sock = socket.create_connection((backend.host, backend.port))
        try:
            send_frame(sock, MSG_HELLO, {"version": PROTOCOL_VERSION, "pid": 0, "host": "tricky"})
            recv_frame(sock)  # WELCOME
            # job A: fail it outright
            _, payload = recv_frame(sock)
            job_a, chunk_a = payload[0], payload[1]
            send_frame(
                sock,
                MSG_ERROR,
                {"job_id": job_a, "chunk_id": chunk_a, "error": "boom-a", "traceback": ""},
            )
            # job B: replay stale job-A frames before every honest answer
            while True:
                msg_type, payload = recv_frame(sock)
                if msg_type != MSG_CHUNK:
                    return
                job_b, chunk_b, grouped, level = payload
                send_frame(sock, MSG_RESULT, (job_a, chunk_b, [(0, "stale-garbage")]))
                send_frame(
                    sock,
                    MSG_ERROR,
                    {"job_id": job_a, "chunk_id": chunk_a, "error": "stale boom", "traceback": ""},
                )
                send_frame(sock, MSG_RESULT, (job_b, chunk_b, run_cell_chunk(grouped, level)))
        except (ConnectionError, ProtocolError, OSError):
            pass
        finally:
            sock.close()

    threading.Thread(target=tricky_worker, daemon=True).start()
    try:
        with pytest.raises(RuntimeError, match="boom-a"):
            sweep(backend, LOSSY_IACK, 2)
        distributed = sweep(backend, LOSSY_IACK, 2)
        serial = Runner().run_repetitions(LOSSY_IACK, repetitions=2)
        assert [r.client_stats for r in distributed] == [
            r.client_stats for r in serial
        ]
    finally:
        backend.close()


def test_oversized_chunk_aborts_cleanly_and_frees_workers(monkeypatch, chunk_cells):
    """A chunk whose frame exceeds the bound is a deterministic
    dispatch failure: the run aborts with the actionable error (no
    fleet teardown) and no worker is left marked busy for a frame
    that was never sent."""
    # The bound sits between the ~50-byte HELLO and the ~500-byte
    # CHUNK frame, so workers register but no chunk can ever be sent.
    monkeypatch.setattr(distributed, "MAX_FRAME_BYTES", 256)
    backend = SocketBackend(port=0, min_workers=2)
    try:
        for _ in range(2):
            start_worker_thread(backend)
        with pytest.raises(RuntimeError, match="cannot be dispatched"):
            chunk_cells(1)
            sweep(backend, LOSSY_IACK, 4)
        backend.wait_for_workers(2, timeout=5)  # nobody was dropped
        with backend._lock:
            assert all(
                conn.inflight is None for conn in backend._workers.values()
            )
        assert backend.stats.chunks_dispatched == 0
        assert backend.stats.workers_lost == 0
    finally:
        backend.close()


def test_parallelism_waits_for_the_fleet_before_chunk_sizing():
    """Chunk sizing samples parallelism() before run_cells blocks on
    min_workers, so parallelism() itself must wait for the fleet — or
    chunks get sized for however many workers had dialed in."""
    backend = SocketBackend(port=0, min_workers=2)
    sampled = []
    try:
        thread = threading.Thread(
            target=lambda: sampled.append(backend.parallelism()), daemon=True
        )
        thread.start()
        time.sleep(0.2)
        assert not sampled  # still waiting for the two workers
        for _ in range(2):
            start_worker_thread(backend)
        thread.join(timeout=10)
        assert sampled == [2]
    finally:
        backend.close()


def test_wait_for_workers_times_out():
    backend = SocketBackend(port=0, min_workers=1)
    try:
        with pytest.raises(RuntimeError, match="timed out waiting"):
            backend.wait_for_workers(1, timeout=0.1)
    finally:
        backend.close()


def test_parallelism_raises_after_one_worker_timeout_not_two():
    """A fleet that never assembles fails at --worker-timeout, not at
    twice that (chunk sizing and the job must not each burn a full
    wait window)."""
    backend = SocketBackend(port=0, min_workers=1, worker_wait_timeout=0.2)
    try:
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="timed out waiting"):
            backend.parallelism()
        assert time.monotonic() - start < 2.0
    finally:
        backend.close()


def test_replacement_window_survives_spurious_wakeups():
    """When every worker is lost, the coordinator must hold the full
    --worker-timeout replacement window even while unrelated condition
    notifies fire (e.g. a second near-simultaneous worker drop) — a
    single un-looped wait would abort on the first wakeup and never let
    the replacement that dials in seconds later join."""
    backend = SocketBackend(port=0, min_workers=1, worker_wait_timeout=20.0)
    stop = threading.Event()

    def doomed_worker():  # takes the first chunk and dies holding it
        sock = socket.create_connection((backend.host, backend.port))
        try:
            send_frame(sock, MSG_HELLO, {"version": PROTOCOL_VERSION, "pid": 0, "host": "doom"})
            recv_frame(sock)  # WELCOME
            recv_frame(sock)  # take the first chunk, then die holding it
        except (ConnectionError, ProtocolError, OSError):
            pass
        finally:
            sock.close()

    def noisy_notifier():  # unrelated wakeups during the window
        while not stop.wait(0.05):
            with backend._cond:
                backend._cond.notify_all()

    def late_replacement():
        time.sleep(1.0)
        worker_main(backend.host, backend.port, retry_for=5.0)

    threading.Thread(target=doomed_worker, daemon=True).start()
    threading.Thread(target=noisy_notifier, daemon=True).start()
    threading.Thread(target=late_replacement, daemon=True).start()
    try:
        serial = Runner().run_repetitions(LOSSY_IACK, repetitions=2)
        distributed = sweep(backend, LOSSY_IACK, 2)
        assert backend.stats.workers_lost >= 1
        assert [r.client_stats for r in distributed] == [
            r.client_stats for r in serial
        ]
    finally:
        stop.set()
        backend.close()


def test_poison_chunk_gives_up_after_retry_bound():
    """Workers that die on the same chunk over and over must not
    requeue it forever."""
    backend = SocketBackend(port=0, min_workers=1, worker_wait_timeout=10.0)

    def doomed_worker():
        sock = socket.create_connection((backend.host, backend.port))
        try:
            send_frame(sock, MSG_HELLO, {"version": PROTOCOL_VERSION, "pid": 0, "host": "doom"})
            recv_frame(sock)  # WELCOME
            recv_frame(sock)  # take the chunk ...
        except (ConnectionError, ProtocolError, OSError):
            pass
        finally:
            sock.close()  # ... and die holding it

    def keep_spawning():
        while not stop.is_set():
            doomed_worker()

    stop = threading.Event()
    threading.Thread(target=keep_spawning, daemon=True).start()
    try:
        with pytest.raises(RuntimeError, match="giving up"):
            sweep(backend, LOSSY_IACK, 2)
    finally:
        stop.set()
        backend.close()


# -- CLI ----------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_cli_distributed_bundle_byte_identical_to_local(tmp_path, capsys):
    local_dir = tmp_path / "local"
    dist_dir = tmp_path / "dist"
    key_file = tmp_path / "auth.key"
    key_file.write_text("cli-suite-secret\n")
    assert main(
        ["run", "fig6", "fig12", "--smoke", "--backend", "local",
         "--out", str(local_dir)]
    ) == 0
    port = free_port()
    workers = [
        threading.Thread(
            target=main,
            args=(["worker", "--connect", f"127.0.0.1:{port}", "--retry", "30",
                   "--auth-key-file", str(key_file)],),
            daemon=True,
        )
        for _ in range(2)
    ]
    for thread in workers:
        thread.start()
    assert main(
        ["run", "fig6", "fig12", "--smoke", "--backend", "distributed",
         "--listen", str(port), "--min-workers", "2",
         "--auth-key-file", str(key_file), "--out", str(dist_dir)]
    ) == 0
    out = capsys.readouterr().out
    assert "distributed backend listening on" in out
    assert "(auth on)" in out
    # The line the distributed-smoke CI job greps: both workers worked.
    assert "chunk(s) dispatched over 2 of 2 worker(s)" in out
    assert "worker-cache" not in out  # workers keep no results
    for name in ("fig6.json", "fig12.json", "suite.json"):
        assert (local_dir / name).read_bytes() == (dist_dir / name).read_bytes()
    payload = json.loads((dist_dir / "suite.json").read_text())
    assert payload["plan"]["shared_cells"] > 0  # dedup survived distribution
    for thread in workers:
        thread.join(timeout=30)
    # Third pass with workers started with ``--no-cache``, which is
    # accepted and ignored: the bundles stay byte-identical.
    nocache_dir = tmp_path / "nocache"
    port = free_port()
    nocache_workers = [
        threading.Thread(
            target=main,
            args=(["worker", "--connect", f"127.0.0.1:{port}", "--retry", "30",
                   "--no-cache", "--auth-key-file", str(key_file)],),
            daemon=True,
        )
        for _ in range(2)
    ]
    for thread in nocache_workers:
        thread.start()
    assert main(
        ["run", "fig6", "fig12", "--smoke", "--backend", "distributed",
         "--listen", str(port), "--min-workers", "2",
         "--auth-key-file", str(key_file), "--out", str(nocache_dir)]
    ) == 0
    for name in ("fig6.json", "fig12.json", "suite.json"):
        assert (local_dir / name).read_bytes() == (nocache_dir / name).read_bytes()
    for thread in nocache_workers:
        thread.join(timeout=30)
