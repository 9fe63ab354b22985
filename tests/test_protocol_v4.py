"""The fleet's wire (protocol v8): one body format for every frame,
strict version checks, and the chunk-split dispatch path.

Three load-bearing properties:

* Every frame body is ``u8 codec | pickle``, zlib-compressed at
  4 KiB and above when that is smaller; it round-trips arbitrary
  payloads, and the byte counters report a *measured* compression
  win, not a vibe.
* The readers are strict: a body with an unknown codec byte (zstd's
  retired id 2 included) or a bare pickle is a protocol error, not
  "legacy" (HELLO's version check is in ``test_wire_protocol.py``).
* An oversized chunk is no longer fatal when it can be split: the
  scheduler halves it and the run completes byte-identical to local.
"""

import pickle
import random
import socket

import pytest

from repro.interop.runner import SIZE_10KB, Runner, Scenario
from repro.quic.server import ServerMode
from repro.runtime import LocalBackend, SocketBackend, distributed
from repro.runtime.distributed import (
    MSG_CHUNK,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_RESULT,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    ProtocolError,
    make_frame,
    recv_frame,
    recv_frame_ex,
)
from repro.runtime.events import ChunkDispatched
from repro.runtime.wire import (
    BLOB_MAGIC,
    CODEC_RAW,
    CODEC_ZLIB,
    COMPRESS_THRESHOLD,
    compress_blob,
    decode_payload,
    decompress_blob,
    encode_payload,
)
from repro.runtime.worker import group_cells
from tests.sweeps import start_worker_thread, sweep
from tests.test_wire_protocol import QUICHE_LOSSY, raw_frame

# -- body codec ---------------------------------------------------------


@pytest.mark.parametrize("codec", ["zlib", "raw"])
def test_encode_decode_round_trip(codec):
    payload = {
        "nested": [1, 2.5, "three", None],
        "blob": bytes(range(256)) * 24,
        "buffer": bytearray(b"x" * 4096),
    }
    body, raw_len = encode_payload(payload, codec=codec)
    assert body[0] == (CODEC_ZLIB if codec == "zlib" else CODEC_RAW)
    obj, decoded_raw_len = decode_payload(body)
    assert decoded_raw_len == raw_len
    assert obj == payload


def test_compression_shrinks_compressible_bodies():
    payload = {"zeros": b"\x00" * 32768}
    raw_body, raw_len = encode_payload(payload, codec="raw")
    zlib_body, zlib_raw_len = encode_payload(payload)
    assert raw_len == zlib_raw_len
    assert len(zlib_body) < len(raw_body)
    assert zlib_body[0] != CODEC_RAW
    assert decode_payload(zlib_body)[0] == payload


def test_threshold_gates_compression():
    small = {"tiny": b"x" * 64}
    body, raw_len = encode_payload(small)
    # Under the threshold the body ships raw, however compressible.
    assert raw_len < COMPRESS_THRESHOLD
    assert body[0] == CODEC_RAW
    assert decode_payload(body)[0] == small
    large = {"large": b"x" * COMPRESS_THRESHOLD}
    body, raw_len = encode_payload(large)
    assert body[0] == CODEC_ZLIB
    assert len(body) < raw_len
    assert decode_payload(body)[0] == large


def test_incompressible_bodies_ship_raw():
    # Compressing noise grows it; the encoder must notice and keep raw.
    import random as _random

    rng = _random.Random(7)
    noise = bytes(rng.getrandbits(8) for _ in range(8192))
    body, _raw_len = encode_payload({"noise": noise})
    assert body[0] == CODEC_RAW


def test_decode_rejects_truncated_bodies():
    body, _ = encode_payload({"k": b"v" * 100}, codec="raw")
    with pytest.raises(ValueError):
        decode_payload(body[:8])
    with pytest.raises(ValueError):
        decode_payload(b"")


@pytest.mark.parametrize("ident", [2, 3, 0x7F, 0x80, 0xFF])
def test_unknown_codec_byte_is_a_protocol_error(ident):
    # 2 was zstd's id before v7; 0x80 is a bare pickle's first byte.
    body = bytes([ident]) + pickle.dumps({"k": "v"}, protocol=5)
    with pytest.raises(ValueError, match="unknown wire codec id"):
        decode_payload(body)
    left, right = socket.socketpair()
    try:
        left.sendall(raw_frame(MSG_RESULT, body))
        with pytest.raises(ProtocolError, match="unknown wire codec id"):
            recv_frame_ex(right)
    finally:
        left.close()
        right.close()


def test_data_frame_socket_round_trip_and_legacy_sniff():
    left, right = socket.socketpair()
    try:
        payload = (1, 2, {"cells": b"c" * 6000}, "stats")
        frame, raw_len = make_frame(MSG_RESULT, payload)
        left.sendall(frame)
        msg_type, got, wire_len, got_raw = recv_frame_ex(right)
        assert msg_type == MSG_RESULT
        assert got == payload
        assert got_raw == raw_len
        assert wire_len == len(frame)
        assert wire_len < raw_len  # the frame actually compressed
        # The pre-v4 sniff is gone: a plain-pickle body on a data
        # frame starts with the 0x80 pickle opcode, which is not a
        # codec id, so the frame is a protocol error.
        left.sendall(raw_frame(MSG_RESULT, pickle.dumps(payload)))
        with pytest.raises(ProtocolError, match="undecodable frame payload"):
            recv_frame_ex(right)
    finally:
        left.close()
        right.close()


def test_data_frames_cover_the_volume_carriers():
    # One body format for every frame type: a control frame above the
    # threshold compresses exactly like a data frame.
    payload = {"version": PROTOCOL_VERSION, "pad": "p" * COMPRESS_THRESHOLD}
    for msg_type in (MSG_CHUNK, MSG_RESULT, MSG_HELLO, MSG_WELCOME, MSG_HEARTBEAT):
        frame, raw_len = make_frame(msg_type, payload)
        assert frame[9] == CODEC_ZLIB
        assert len(frame) < raw_len
        left, right = socket.socketpair()
        try:
            left.sendall(frame)
            assert recv_frame(right) == (msg_type, payload)
        finally:
            left.close()
            right.close()


# -- end-to-end: fewer bytes, identical bundles -------------------------


def _run_distributed(backend, repetitions=24):
    for _ in range(2):
        start_worker_thread(backend)
    try:
        results = sweep(backend, QUICHE_LOSSY, repetitions)
        return results, backend.stats
    finally:
        backend.close()


def test_v4_results_ship_measurably_fewer_bytes(chunk_cells):
    # Pinned 12-cell chunks: each RESULT pickle clears the 4 KiB
    # threshold (a 4-cell one would ship raw), whatever the workers'
    # timing would make of an adaptive carve.
    chunk_cells(12)
    compressed, stats = _run_distributed(SocketBackend(port=0, min_workers=2))
    assert stats.result_bytes_raw >= 2 * COMPRESS_THRESHOLD
    # Byte counts, not timings: these 24 cells pickle and compress to
    # the same bytes on any machine (9,948 raw, 3,960 on the wire:
    # 2.51x). The floor is 65 % of that quotient.
    assert stats.result_bytes_raw / stats.result_bytes_wire >= 1.63
    # Transport is invisible to results: they match the serial runner.
    serial = Runner().run_repetitions(QUICHE_LOSSY, repetitions=24)
    assert [r.client_stats for r in compressed] == [r.client_stats for r in serial]


# -- oversized chunks split instead of aborting -------------------------


def test_oversized_chunk_splits_and_run_completes(monkeypatch, chunk_cells):
    # Each scenario drags a fat (never-triggered) loss set so the CHUNK
    # frame dwarfs the RESULT frames: the dispatch bound below must trip
    # on the outbound chunk, not on the workers' replies. The sets are
    # random, so a chunk's compressed frame grows with its cell count.
    from repro.sim.loss import IndexedLoss

    scenarios = [
        Scenario(client="quic-go", mode=ServerMode.WFC, http="h1",
                 rtt_ms=float(rtt), response_size=SIZE_10KB,
                 server_to_client_loss=IndexedLoss(
                     random.Random(rtt).sample(range(90_000, 1_000_000), 400)
                 ))
        for rtt in (9, 19, 29, 39, 49, 59, 69, 79)
    ]
    cells = [(i, scenario, 0) for i, scenario in enumerate(scenarios)]
    frame, _raw = make_frame(MSG_CHUNK, (1, 0, group_cells(cells), "stats"))
    # The bound admits half the sweep per frame but not the whole
    # sweep, so the first dispatch must split.
    bound = (3 * len(frame)) // 4
    reference = sweep(LocalBackend(workers=0), scenarios)

    monkeypatch.setattr(distributed, "MAX_FRAME_BYTES", bound)
    backend = SocketBackend(port=0, min_workers=2)
    events = []
    backend.set_event_sink(events.append)
    for _ in range(2):
        start_worker_thread(backend)
    try:
        chunk_cells(len(scenarios))
        results = sweep(backend, scenarios)
        assert backend.stats.chunks_requeued >= 1
        assert backend.stats.workers_lost == 0
        # The split chunk was never sent, so it was never counted.
        kinds = [type(event) for event in events]
        assert backend.stats.chunks_dispatched == kinds.count(ChunkDispatched)
    finally:
        backend.close()
    assert len(results) == len(reference)
    for expected, actual in zip(reference, results):
        assert actual.client_stats == expected.client_stats
        assert actual.server_stats == expected.server_stats


# -- codec-framed blobs -------------------------------------------------


def test_blob_round_trip_and_legacy_passthrough():
    data = b"\x80\x04" + b"payload" * 100  # looks like a pickle
    framed = compress_blob(data)
    assert framed.startswith(BLOB_MAGIC)
    assert decompress_blob(framed) == data
    assert decompress_blob(BLOB_MAGIC + bytes([CODEC_RAW]) + data) == data
    # The pass-through is gone: no magic means not a blob we wrote.
    with pytest.raises(ValueError, match="magic"):
        decompress_blob(data)
