"""HELLO, WELCOME and RESULT on a live coordinator (protocol v8).

A worker of another version is refused at HELLO, before it is
registered; a current one is answered with a WELCOME that carries only
the version. A RESULT body is ``u8 codec | pickle`` of ``(job_id, chunk_id,
results)``. A worker that answers a CHUNK with anything else — a bare
pickle, an unknown codec byte, or the four-field RESULT of protocol
v7, whose workers kept a result cache — is dropped as a protocol
violator; its chunk is requeued and an honest worker finishes the run
with the serial answer.
"""

import pickle
import socket
import struct
import threading
import time

import pytest

from repro.api import DistributedConfig, RunRequest, Session, write_bundle
from repro.interop.runner import SIZE_10KB, Runner, Scenario
from repro.interop.scenarios import first_server_flight_tail_loss
from repro.quic.server import ServerMode
from repro.runtime import SocketBackend, worker_main
from repro.runtime.distributed import (
    MSG_HELLO,
    MSG_RESULT,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    ProtocolError,
    make_frame,
    recv_frame,
    send_frame,
)
from repro.runtime.worker import run_cell_chunk
from tests.sweeps import start_worker_thread, sweep

QUICHE_LOSSY = Scenario(
    client="quiche",
    mode=ServerMode.WFC,
    http="h3",
    rtt_ms=100.0,
    response_size=SIZE_10KB,
    server_to_client_loss=first_server_flight_tail_loss(ServerMode.WFC),
)


def raw_frame(msg_type: int, body: bytes) -> bytes:
    """A frame around a hand-made body, bypassing the encoder."""
    return struct.pack(">4sBI", b"RPRO", msg_type, len(body)) + body


def _rogue_worker(host, port, name, frame_of):
    """Start a worker thread that computes its first CHUNK honestly,
    sends ``frame_of(job_id, chunk_id, results)`` as its answer and
    then waits for the coordinator to hang up."""

    def serve():
        sock = socket.create_connection((host, int(port)))
        try:
            send_frame(sock, MSG_HELLO, {"version": PROTOCOL_VERSION, "pid": 0, "host": name})
            recv_frame(sock)  # WELCOME
            _, (job_id, chunk_id, grouped, level) = recv_frame(sock)
            sock.sendall(frame_of(job_id, chunk_id, run_cell_chunk(grouped, level)))
            recv_frame(sock)  # blocks until the server hangs up on us
        except (ConnectionError, ProtocolError, OSError):
            pass
        finally:
            sock.close()

    threading.Thread(target=serve, daemon=True).start()


def _dropped_then_served(backend, chunk_cells):
    """Run a 4-cell sweep on ``backend`` beside one honest worker and
    check the rogue was dropped and the answer is the serial one."""
    start_worker_thread(backend)
    serial = Runner().run_repetitions(QUICHE_LOSSY, repetitions=4)
    chunk_cells(1)
    distributed = sweep(backend, QUICHE_LOSSY, 4)
    assert backend.stats.protocol_errors >= 1
    assert backend.stats.chunks_requeued >= 1
    assert backend.worker_count() == 1
    assert [r.client_stats for r in distributed] == [r.client_stats for r in serial]


def test_plain_pickle_result_body_drops_the_worker_not_the_job(chunk_cells):
    """A peer answering a CHUNK with a 0x80-prefixed (plain pickle)
    RESULT body is dropped as a protocol violator; its chunk is
    requeued and an honest worker finishes the run."""
    backend = SocketBackend(port=0, min_workers=2)
    _rogue_worker(
        backend.host,
        backend.port,
        "v3ish",
        lambda *body: raw_frame(MSG_RESULT, pickle.dumps(body)),
    )
    try:
        _dropped_then_served(backend, chunk_cells)
    finally:
        backend.close()


def test_four_field_result_drops_the_worker_not_the_job(chunk_cells):
    """A v7-shaped RESULT, which still carries the worker's cache
    accounting as a fourth field, is refused like any malformed body."""
    backend = SocketBackend(port=0, min_workers=2)
    cache_meta = {"hits": 0, "misses": 1, "uncacheable": 0, "entries": 1, "bytes": 0}
    _rogue_worker(
        backend.host,
        backend.port,
        "v7ish",
        lambda *body: make_frame(MSG_RESULT, (*body, cache_meta))[0],
    )
    try:
        _dropped_then_served(backend, chunk_cells)
    finally:
        backend.close()


def test_v7_hello_is_refused_before_registration():
    backend = SocketBackend(port=0)
    try:
        sock = socket.create_connection((backend.host, backend.port), timeout=5)
        try:
            send_frame(sock, MSG_HELLO, {"version": 7, "pid": 1, "host": "v7", "epoch": 0})
            with pytest.raises((ConnectionError, OSError)):
                recv_frame(sock)
        finally:
            sock.close()
        assert backend.stats.protocol_errors == 1
        assert backend.stats.workers_seen == 0
    finally:
        backend.close()


def _drain_welcome_then_close(backend, hello):
    sock = socket.create_connection((backend.host, backend.port), timeout=5)
    try:
        send_frame(sock, MSG_HELLO, hello)
        sock.settimeout(5)
        return recv_frame(sock)
    finally:
        sock.close()


def test_v3_hello_is_rejected_before_registration():
    backend = SocketBackend(port=0)
    try:
        # v4 too: its workers unpack a 5-element CHUNK, so they are
        # refused at HELLO rather than mis-framed mid-job. And v5: its
        # workers cannot unpickle an ObservedCell and would drop the
        # connection on their first observed chunk.
        for refused, version in enumerate((3, 4, 5), start=1):
            sock = socket.create_connection((backend.host, backend.port), timeout=5)
            try:
                send_frame(sock, MSG_HELLO, {"version": version, "host": "old", "pid": 1})
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    if backend.stats.protocol_errors >= refused:
                        break
                    time.sleep(0.02)
                assert backend.stats.protocol_errors >= refused
                assert backend.worker_count() == 0
            finally:
                sock.close()
        # The refusals cost the job nothing: a current worker serves it.
        start_worker_thread(backend)
        serial = Runner().run_repetitions(QUICHE_LOSSY, repetitions=4)
        distributed = sweep(backend, QUICHE_LOSSY, 4)
        assert [r.client_stats for r in distributed] == [r.client_stats for r in serial]
    finally:
        backend.close()


def test_v6_hello_with_codecs_is_refused_before_registration():
    """A v6 worker is refused at HELLO, whether its HELLO reaches the
    coordinator in v7 framing or, as a real v6 worker writes it, as a
    bare pickle; neither is registered or answered with WELCOME."""
    v6_hello = {"version": 6, "pid": 1, "host": "v6", "epoch": 0, "codecs": ["zlib", "raw"]}
    backend = SocketBackend(port=0)
    try:
        for refused, frame in enumerate(
            (make_frame(MSG_HELLO, v6_hello)[0], raw_frame(MSG_HELLO, pickle.dumps(v6_hello))),
            start=1,
        ):
            sock = socket.create_connection((backend.host, backend.port), timeout=5)
            try:
                sock.sendall(frame)
                with pytest.raises((ConnectionError, OSError)):
                    recv_frame(sock)
                assert backend.stats.protocol_errors == refused
                assert backend.worker_count() == 0
                assert backend.stats.workers_seen == 0
            finally:
                sock.close()
    finally:
        backend.close()


def test_welcome_carries_only_the_version():
    """WELCOME answers a current HELLO, and a HELLO that still carries
    the ``epoch`` field a worker of one release earlier sent registers
    too: the coordinator never read it."""
    backend = SocketBackend(port=0)
    try:
        for hello in (
            {"version": PROTOCOL_VERSION, "pid": 0, "host": "v8"},
            {"version": PROTOCOL_VERSION, "pid": 0, "host": "v8-epoch", "epoch": 1},
        ):
            msg_type, payload = _drain_welcome_then_close(backend, hello)
            assert msg_type == MSG_WELCOME
            assert payload == {"version": PROTOCOL_VERSION}
        deadline = time.monotonic() + 5  # registration follows WELCOME
        while backend.stats.workers_seen < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert backend.stats.workers_seen == 2
        assert backend.stats.protocol_errors == 0
    finally:
        backend.close()


def test_unknown_codec_result_drops_the_worker_not_the_run(tmp_path):
    """A worker whose RESULT body names an unknown codec (zstd's retired
    id) is dropped as a protocol violator; its chunk is requeued and the
    other worker finishes the run with the serial bundle."""
    session = Session(DistributedConfig(listen=0, min_workers=2))
    host, port = session.address.rsplit(":", 1)
    request = RunRequest(("fig6",), smoke=True)
    with session:
        _rogue_worker(
            host, port, "zstd", lambda *body: raw_frame(MSG_RESULT, bytes([2]) + pickle.dumps(body))
        )
        threading.Thread(
            target=worker_main, args=(host, int(port)), kwargs={"retry_for": 5.0}, daemon=True
        ).start()
        fleet = write_bundle(session.run(request), tmp_path / "fleet")
        stats = session.backend_stats
        assert stats.protocol_errors == 1
        assert stats.workers_lost == 1
        assert stats.chunks_requeued >= 1
        assert stats.workers_used == 1
    with Session() as serial_session:
        serial = write_bundle(serial_session.run(request), tmp_path / "serial")
    assert [path.name for path in fleet] == [path.name for path in serial]
    for got, expected in zip(fleet, serial):
        assert got.read_bytes() == expected.read_bytes(), got.name
