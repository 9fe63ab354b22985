"""Protocol v4: out-of-band data frames, negotiated compression, and
the chunk-split dispatch path.

Three load-bearing properties:

* The v4 body format round-trips arbitrary payloads — compressed or
  raw, with or without out-of-band buffers — and the byte counters
  report a *measured* compression win, not a vibe.
* Version negotiation is strict (a v3 HELLO is rejected before any v4
  body is parsed) and so are the readers: one encoding per frame
  type, so a bare-pickle data-frame body or cache blob is corrupt,
  not "legacy".
* An oversized chunk is no longer fatal when it can be split: the
  scheduler halves it and the run completes byte-identical to local.
"""

import pickle
import socket
import threading
import time

import pytest

from repro.interop.runner import SIZE_10KB, Runner, Scenario
from repro.interop.scenarios import first_server_flight_tail_loss
from repro.quic.server import ServerMode
from repro.runtime import MatrixRunner, SocketBackend, worker_main
from repro.runtime.distributed import (
    DATA_FRAMES,
    MSG_CHUNK,
    MSG_HELLO,
    MSG_RESULT,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    ProtocolError,
    make_data_frame,
    recv_frame,
    recv_frame_ex,
    send_frame,
)
from repro.runtime.wire import (
    BLOB_MAGIC,
    CODEC_RAW,
    DEFAULT_COMPRESS_THRESHOLD,
    available_codecs,
    choose_codec,
    compress_blob,
    decode_payload,
    decompress_blob,
    encode_payload,
)
from repro.runtime.worker import group_cells, run_cell_chunk

QUICHE_LOSSY = Scenario(
    client="quiche",
    mode=ServerMode.WFC,
    http="h3",
    rtt_ms=100.0,
    response_size=SIZE_10KB,
    server_to_client_loss=first_server_flight_tail_loss(ServerMode.WFC),
)


def start_worker_thread(backend: SocketBackend, **kwargs) -> threading.Thread:
    thread = threading.Thread(
        target=worker_main,
        args=(backend.host, backend.port),
        kwargs={"retry_for": 5.0, **kwargs},
        daemon=True,
    )
    thread.start()
    return thread


# -- body codec ---------------------------------------------------------


@pytest.mark.parametrize("codec", available_codecs())
def test_encode_decode_round_trip(codec):
    payload = {
        "nested": [1, 2.5, "three", None],
        "blob": bytes(range(256)) * 8,
        "oob": pickle.PickleBuffer(bytearray(b"x" * 4096)),
    }
    body, raw_len = encode_payload(payload, codec=codec, threshold=0)
    obj, decoded_raw_len = decode_payload(body)
    assert decoded_raw_len == raw_len
    assert obj["nested"] == payload["nested"]
    assert obj["blob"] == payload["blob"]
    assert bytes(obj["oob"]) == b"x" * 4096


def test_compression_shrinks_compressible_bodies():
    payload = {"zeros": b"\x00" * 32768}
    raw_body, raw_len = encode_payload(payload, codec="raw")
    zlib_body, zlib_raw_len = encode_payload(payload, codec="zlib", threshold=0)
    assert raw_len == zlib_raw_len
    assert len(zlib_body) < len(raw_body)
    assert zlib_body[0] != CODEC_RAW
    assert decode_payload(zlib_body)[0] == payload


def test_threshold_gates_compression():
    small = {"tiny": b"x" * 64}
    body, _raw_len = encode_payload(
        small, codec="zlib", threshold=DEFAULT_COMPRESS_THRESHOLD
    )
    # Under the threshold the body ships raw even on a zlib connection.
    assert body[0] == CODEC_RAW
    assert decode_payload(body)[0] == small


def test_incompressible_bodies_ship_raw():
    # Compressing noise grows it; the encoder must notice and keep raw.
    import random as _random

    rng = _random.Random(7)
    noise = bytes(rng.getrandbits(8) for _ in range(8192))
    body, _raw_len = encode_payload({"noise": noise}, codec="zlib", threshold=0)
    assert body[0] == CODEC_RAW


def test_decode_rejects_truncated_bodies():
    body, _ = encode_payload({"k": b"v" * 100}, codec="raw")
    with pytest.raises(ValueError):
        decode_payload(body[:8])
    with pytest.raises(ValueError):
        decode_payload(b"")


def test_choose_codec_negotiation():
    assert choose_codec(["zlib", "raw"], "off") == "raw"
    assert choose_codec(["zlib", "raw"], "auto") == "zlib"
    assert choose_codec(["raw"], "auto") == "raw"
    assert choose_codec(None, "auto") == "raw"
    assert choose_codec(["exotic"], "auto") == "raw"
    # A specific preference the peer cannot decode falls back to raw.
    assert choose_codec(["raw"], "zlib") == "raw"
    with pytest.raises(ValueError):
        choose_codec(["raw"], "lzma")


def test_data_frame_socket_round_trip_and_legacy_sniff():
    left, right = socket.socketpair()
    try:
        payload = (1, 2, {"cells": b"c" * 6000}, "stats")
        frame, raw_len = make_data_frame(MSG_RESULT, payload, codec="zlib")
        left.sendall(frame)
        msg_type, got, wire_len, got_raw = recv_frame_ex(right, 1 << 20)
        assert msg_type == MSG_RESULT
        assert got == payload
        assert got_raw == raw_len
        assert wire_len == len(frame)
        assert wire_len < raw_len  # the frame actually compressed
        # The pre-v4 sniff is gone: a plain-pickle body on a data
        # frame starts with the 0x80 pickle opcode, which is not a
        # codec id, so the frame is a protocol error.
        send_frame(left, MSG_RESULT, payload)
        with pytest.raises(ProtocolError, match="undecodable frame payload"):
            recv_frame_ex(right, 1 << 20)
    finally:
        left.close()
        right.close()


def test_plain_pickle_result_body_drops_the_worker_not_the_job():
    """A peer answering a CHUNK with a 0x80-prefixed (plain pickle)
    RESULT body is dropped as a protocol violator; its chunk is
    requeued and an honest worker finishes the run."""
    backend = SocketBackend(port=0, min_workers=2)

    def plain_pickle_worker():
        sock = socket.create_connection((backend.host, backend.port))
        try:
            send_frame(sock, MSG_HELLO, {"version": PROTOCOL_VERSION, "pid": 0, "host": "v3ish"})
            recv_frame(sock)  # WELCOME
            _, (job_id, chunk_id, grouped, level) = recv_frame(sock)
            results = run_cell_chunk(grouped, level)
            send_frame(sock, MSG_RESULT, (job_id, chunk_id, results, None))
            recv_frame(sock)  # blocks until the server hangs up on us
        except (ConnectionError, ProtocolError, OSError):
            pass
        finally:
            sock.close()

    threading.Thread(target=plain_pickle_worker, daemon=True).start()
    try:
        start_worker_thread(backend)
        serial = Runner().run_repetitions(QUICHE_LOSSY, repetitions=4)
        with MatrixRunner(backend=backend, chunk_size=1) as runner:
            distributed = runner.run_repetitions(QUICHE_LOSSY, repetitions=4)
        assert backend.stats.protocol_errors >= 1
        assert backend.stats.chunks_requeued >= 1
        assert backend.worker_count() == 1
        assert [r.client_stats for r in distributed] == [r.client_stats for r in serial]
    finally:
        backend.close()


def test_data_frames_cover_the_volume_carriers():
    assert MSG_CHUNK in DATA_FRAMES
    assert MSG_RESULT in DATA_FRAMES
    assert MSG_HELLO not in DATA_FRAMES
    assert MSG_WELCOME not in DATA_FRAMES


# -- version + codec negotiation on a live coordinator ------------------


def _drain_welcome_then_close(backend, hello):
    sock = socket.create_connection((backend.host, backend.port), timeout=5)
    try:
        send_frame(sock, MSG_HELLO, hello)
        sock.settimeout(5)
        return recv_frame(sock, 1 << 20)
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
        with MatrixRunner(backend=backend) as runner:
            distributed = runner.run_repetitions(QUICHE_LOSSY, repetitions=4)
        assert [r.client_stats for r in distributed] == [r.client_stats for r in serial]
    finally:
        backend.close()


def test_welcome_carries_negotiated_codec():
    backend = SocketBackend(port=0)
    try:
        msg_type, payload = _drain_welcome_then_close(
            backend, {"version": PROTOCOL_VERSION, "codecs": ["zlib", "raw"]}
        )
        assert msg_type == MSG_WELCOME
        assert payload["version"] == PROTOCOL_VERSION
        assert payload["codec"] == "zlib"
        assert payload["threshold"] == DEFAULT_COMPRESS_THRESHOLD
    finally:
        backend.close()

    off = SocketBackend(port=0, compression="off", compress_threshold=128)
    try:
        msg_type, payload = _drain_welcome_then_close(
            off, {"version": PROTOCOL_VERSION, "codecs": ["zlib", "raw"]}
        )
        assert msg_type == MSG_WELCOME
        assert payload["codec"] == "raw"
        assert payload["threshold"] == 128
    finally:
        off.close()


def test_socketbackend_validates_compression_config():
    with pytest.raises(ValueError):
        SocketBackend(port=0, compression="lzma")
    with pytest.raises(ValueError):
        SocketBackend(port=0, compress_threshold=-1)


# -- end-to-end: fewer bytes, identical bundles -------------------------


def _run_distributed(backend, repetitions=24, chunk_size=None):
    for _ in range(2):
        start_worker_thread(backend)
    try:
        with MatrixRunner(backend=backend, chunk_size=chunk_size) as runner:
            results = runner.run_repetitions(QUICHE_LOSSY, repetitions=repetitions)
        return results, backend.stats
    finally:
        backend.close()


def test_v4_results_ship_measurably_fewer_bytes():
    # Pinned chunks: a RESULT body's raw size depends on which cells
    # share its pickle memo, and the adaptive carve follows worker
    # timing, so only fixed slices make the two runs' volumes comparable.
    compressed, stats = _run_distributed(
        SocketBackend(port=0, min_workers=2, compress_threshold=512), chunk_size=4
    )
    assert stats.result_bytes_raw > 0
    assert stats.result_bytes_wire < stats.result_bytes_raw

    raw_results, raw_stats = _run_distributed(
        SocketBackend(port=0, min_workers=2, compression="off"), chunk_size=4
    )
    # Without compression the wire carries the raw body plus framing.
    assert raw_stats.result_bytes_wire > raw_stats.result_bytes_raw
    assert raw_stats.result_bytes_raw == pytest.approx(
        stats.result_bytes_raw, rel=0.05
    )
    # Transport is invisible to results: both match the serial runner.
    serial = Runner().run_repetitions(QUICHE_LOSSY, repetitions=24)
    for expected, a, b in zip(serial, compressed, raw_results):
        assert a.client_stats == expected.client_stats
        assert b.client_stats == expected.client_stats


# -- oversized chunks split instead of aborting -------------------------


def test_oversized_chunk_splits_and_run_completes():
    # Each scenario drags a fat (never-triggered) loss set so the CHUNK
    # frame dwarfs the RESULT frames: the dispatch bound below must trip
    # on the outbound chunk, not on the workers' replies.
    from repro.sim.loss import IndexedLoss

    scenarios = [
        Scenario(client="quic-go", mode=ServerMode.WFC, http="h1",
                 rtt_ms=float(rtt), response_size=SIZE_10KB,
                 server_to_client_loss=IndexedLoss(range(90_000, 90_400)))
        for rtt in (9, 19, 29, 39, 49, 59, 69, 79)
    ]
    cells = [(i, scenario, 0) for i, scenario in enumerate(scenarios)]
    frame, _raw = make_data_frame(
        MSG_CHUNK, (1, 0, group_cells(cells), "stats", "scalar"), codec="raw"
    )
    # The bound admits half the sweep per frame but not the whole
    # sweep, so the first dispatch must split.
    bound = (3 * len(frame)) // 4
    reference = MatrixRunner(workers=0).run_matrix(scenarios, repetitions=1)

    backend = SocketBackend(
        port=0, min_workers=2, max_frame_bytes=bound, compression="off"
    )
    for _ in range(2):
        start_worker_thread(backend)
    try:
        with MatrixRunner(
            backend=backend, chunk_size=len(scenarios)
        ) as runner:
            results = runner.run_matrix(scenarios, repetitions=1)
        assert backend.stats.chunks_requeued >= 1
        assert backend.stats.workers_lost == 0
    finally:
        backend.close()
    assert len(results) == len(reference)
    for expected_reps, actual_reps in zip(reference, results):
        for expected, actual in zip(expected_reps, actual_reps):
            assert actual.client_stats == expected.client_stats
            assert actual.server_stats == expected.server_stats


# -- codec-framed blobs -------------------------------------------------


def test_blob_round_trip_and_legacy_passthrough():
    data = b"\x80\x04" + b"payload" * 100  # looks like a pickle
    framed = compress_blob(data)
    assert framed.startswith(BLOB_MAGIC)
    assert decompress_blob(framed) == data
    assert decompress_blob(compress_blob(data, codec="raw")) == data
    # The pass-through is gone: no magic means not a blob we wrote.
    with pytest.raises(ValueError, match="magic"):
        decompress_blob(data)
