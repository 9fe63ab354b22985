"""Tests for CID management, stream state, and the TLS simulation."""

import pytest
from hypothesis import given, strategies as st

from repro.core.advisor import DeploymentAdvisor
from repro.quic.certs import Certificate, LARGE_CERTIFICATE, SMALL_CERTIFICATE
from repro.quic.cid import CidRegistry, make_cid
from repro.quic.streams import RecvStream, SendStream, StreamSet
from repro.quic.tls import (
    CryptoReceiveBuffer,
    CryptoSendBuffer,
    client_hello,
    server_flight_size,
    server_handshake_messages,
    server_hello,
)


# ---------------------------------------------------------------------------
# CIDs
# ---------------------------------------------------------------------------

def test_cid_register_and_fresh_retire():
    reg = CidRegistry()
    assert reg.register(0, make_cid(1, 0))
    assert reg.retire(0)
    assert reg.duplicate_retirements == 0


def test_duplicate_retirement_detected():
    reg = CidRegistry()
    reg.register(0, make_cid(1, 0))
    assert reg.retire(0)
    assert not reg.retire(0)  # the quiche abort trigger
    assert reg.duplicate_retirements == 1


def test_register_conflicting_cid_rejected():
    reg = CidRegistry()
    assert reg.register(1, make_cid(1, 1))
    assert not reg.register(1, make_cid(2, 1))
    assert reg.register(1, make_cid(1, 1))  # same CID is fine


def test_retire_unknown_sequence_is_fresh_once():
    reg = CidRegistry()
    assert reg.retire(7)
    assert not reg.retire(7)


def test_active_set():
    reg = CidRegistry()
    reg.register(0, make_cid(1, 0))
    reg.register(1, make_cid(1, 1))
    reg.retire(0)
    assert reg.active() == {1}


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

def test_send_stream_chunking_and_fin():
    stream = SendStream(stream_id=0)
    stream.write(2500)
    stream.finish()
    chunks = []
    while True:
        chunk = stream.next_chunk(1000)
        if chunk is None:
            break
        chunks.append(chunk)
    assert [c[1] for c in chunks] == [1000, 1000, 500]
    assert chunks[-1][2] is True  # FIN on the last chunk
    assert stream.bytes_unsent == 0


def test_send_stream_ack_tracking():
    stream = SendStream(stream_id=0)
    stream.write(3000)
    stream.finish()
    while stream.next_chunk(1000):
        pass
    stream.mark_acked(0, 1000, fin=False)
    stream.mark_acked(2000, 1000, fin=True)
    assert stream.unacked_sent_ranges() == [(1000, 2000)]
    assert not stream.all_acked
    stream.mark_acked(1000, 1000, fin=False)
    assert stream.all_acked


def test_send_stream_write_after_finish_raises():
    stream = SendStream(stream_id=0)
    stream.finish()
    with pytest.raises(RuntimeError):
        stream.write(10)


def test_recv_stream_reassembly_and_completion():
    stream = RecvStream(stream_id=0)
    stream.receive(1000, 500, fin=True, now_ms=2.0)
    assert not stream.complete
    assert stream.contiguous_length() == 0
    stream.receive(0, 1000, fin=False, now_ms=3.0)
    assert stream.complete
    assert stream.final_size == 1500
    assert stream.first_byte_time_ms == 2.0


def test_recv_stream_duplicate_bytes_counted():
    stream = RecvStream(stream_id=0)
    stream.receive(0, 1000, fin=False, now_ms=1.0)
    stream.receive(500, 1000, fin=False, now_ms=2.0)
    assert stream.duplicate_bytes == 500


def test_stream_set_creates_on_demand():
    streams = StreamSet()
    assert streams.get_send(4).stream_id == 4
    assert streams.get_recv(4).stream_id == 4
    assert streams.get_send(4) is streams.get_send(4)


@given(
    st.lists(
        st.tuples(st.integers(0, 5000), st.integers(1, 500)),
        min_size=1,
        max_size=30,
    )
)
def test_recv_stream_contiguity_invariant(fragments):
    stream = RecvStream(stream_id=0)
    for offset, length in fragments:
        stream.receive(offset, length, fin=False, now_ms=1.0)
    contiguous = stream.contiguous_length()
    covered = set()
    for offset, length in fragments:
        covered.update(range(offset, offset + length))
    expected = 0
    while expected in covered:
        expected += 1
    assert contiguous == expected


# ---------------------------------------------------------------------------
# TLS simulation
# ---------------------------------------------------------------------------

def test_tls_message_sizes():
    assert client_hello().size == 280
    assert server_hello().size == 123
    messages = server_handshake_messages(SMALL_CERTIFICATE)
    assert [m.name for m in messages] == ["EE", "CERT", "CV", "FIN"]
    cert_msg = messages[1]
    assert cert_msg.size == SMALL_CERTIFICATE.chain_size + 9


def test_certificate_amplification_boundary():
    # The paper's two certificates straddle the 3x1200 budget.
    advisor = DeploymentAdvisor()
    assert not advisor.certificate_exceeds_budget(SMALL_CERTIFICATE.chain_size)
    assert advisor.certificate_exceeds_budget(LARGE_CERTIFICATE.chain_size)
    with pytest.raises(ValueError):
        Certificate(name="bad", chain_size=0)


def test_server_flight_size_scales_with_certificate():
    initial_small, hs_small = server_flight_size(SMALL_CERTIFICATE)
    initial_large, hs_large = server_flight_size(LARGE_CERTIFICATE)
    assert initial_small == initial_large == 123
    assert hs_large - hs_small == (
        LARGE_CERTIFICATE.chain_size - SMALL_CERTIFICATE.chain_size
    )


def test_crypto_send_buffer_labels_and_acks():
    buf = CryptoSendBuffer()
    buf.append(server_hello())
    assert buf.length == 123
    assert buf.label_for(0, 10) == "SH"
    assert buf.unacked_ranges() == [(0, 123)]
    buf.mark_acked(0, 60)
    assert buf.unacked_ranges() == [(60, 123)]
    buf.mark_acked(60, 123)
    assert buf.fully_acked


def test_crypto_send_buffer_merges_ack_ranges():
    buf = CryptoSendBuffer()
    buf.append(client_hello())  # 280 bytes
    buf.mark_acked(0, 100)
    buf.mark_acked(200, 280)
    assert buf.unacked_ranges() == [(100, 200)]
    buf.mark_acked(50, 250)
    assert buf.fully_acked


def test_crypto_receive_buffer_contiguity():
    buf = CryptoReceiveBuffer()
    buf.receive(100, 50)
    assert buf.contiguous_length() == 0
    buf.receive(0, 100)
    assert buf.contiguous_length() == 150
    assert buf.has(150)
    assert not buf.has(151)


@given(
    st.lists(
        st.tuples(st.integers(0, 400), st.integers(1, 100)),
        min_size=1,
        max_size=20,
    )
)
def test_crypto_receive_buffer_matches_set_semantics(fragments):
    buf = CryptoReceiveBuffer()
    covered = set()
    for offset, length in fragments:
        buf.receive(offset, length)
        covered.update(range(offset, offset + length))
    expected = 0
    while expected in covered:
        expected += 1
    assert buf.contiguous_length() == expected
