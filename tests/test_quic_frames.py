"""Tests for QUIC frames: sizes, encoding round trips, semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.quic.frames import (
    AckFrame,
    ConnectionCloseFrame,
    CryptoFrame,
    HandshakeDoneFrame,
    MaxDataFrame,
    NewConnectionIdFrame,
    PaddingFrame,
    PingFrame,
    RetireConnectionIdFrame,
    StreamFrame,
)
from tests.wire_codec import decode_frames


ALL_SIMPLE_FRAMES = [
    PingFrame(),
    PaddingFrame(length=7),
    HandshakeDoneFrame(),
    MaxDataFrame(maximum=123456),
    RetireConnectionIdFrame(sequence=3),
    NewConnectionIdFrame(sequence=2, retire_prior_to=1, connection_id=b"\xAB" * 8),
    ConnectionCloseFrame(error_code=7, reason="bye"),
    CryptoFrame(offset=10, length=20, label="SH"),
    StreamFrame(stream_id=4, offset=0, length=11, fin=True, label="req"),
    AckFrame(ranges=((3, 9),), ack_delay_ms=1.5),
    AckFrame(ranges=((7, 9), (1, 3)), ack_delay_ms=0.0),
]


@pytest.mark.parametrize("frame", ALL_SIMPLE_FRAMES, ids=lambda f: f.describe())
def test_wire_size_matches_encoding(frame):
    assert frame.wire_size() == len(frame.encode())


@pytest.mark.parametrize("frame", ALL_SIMPLE_FRAMES, ids=lambda f: f.describe())
def test_encode_decode_roundtrip_structure(frame):
    decoded = decode_frames(frame.encode())
    assert len(decoded) == 1
    assert type(decoded[0]) is type(frame)


def test_ack_eliciting_classification():
    # RFC 9002 §2: ACK, PADDING, CONNECTION_CLOSE are NOT ack-eliciting.
    assert not AckFrame(ranges=((0, 0),)).ack_eliciting
    assert not PaddingFrame().ack_eliciting
    assert not ConnectionCloseFrame().ack_eliciting
    assert PingFrame().ack_eliciting
    assert CryptoFrame(offset=0, length=1).ack_eliciting
    assert StreamFrame(stream_id=0, offset=0, length=1).ack_eliciting
    assert HandshakeDoneFrame().ack_eliciting
    assert MaxDataFrame(maximum=1).ack_eliciting


def test_ack_frame_validation():
    with pytest.raises(ValueError):
        AckFrame(ranges=())
    with pytest.raises(ValueError):
        AckFrame(ranges=((5, 3),))
    with pytest.raises(ValueError):
        AckFrame(ranges=((1, 2), (5, 9)))  # not descending
    with pytest.raises(ValueError):
        AckFrame(ranges=((5, 9), (3, 6)))  # overlapping
    with pytest.raises(ValueError):
        AckFrame(ranges=((0, 10), (5, 7)))  # nested
    with pytest.raises(ValueError):
        AckFrame(ranges=((0, 0),), ack_delay_ms=-1.0)


def test_ack_frame_membership_and_expansion():
    ack = AckFrame(ranges=((7, 9), (1, 3)))
    assert ack.ranges[0][1] == 9
    assert ack.acks(8) and ack.acks(2)
    assert not ack.acks(5)
    assert [pn for pn in range(12, -1, -1) if ack.acks(pn)] == [9, 8, 7, 3, 2, 1]


def test_ack_frame_multi_range_roundtrip():
    ack = AckFrame(ranges=((20, 25), (10, 12), (0, 2)), ack_delay_ms=8.0)
    decoded = decode_frames(ack.encode())[0]
    assert decoded.ranges == ack.ranges
    # Delay quantizes to 8 µs units.
    assert decoded.ack_delay_ms == pytest.approx(8.0, abs=0.01)


def test_crypto_frame_validation_and_end():
    with pytest.raises(ValueError):
        CryptoFrame(offset=-1, length=5)
    with pytest.raises(ValueError):
        CryptoFrame(offset=0, length=0)
    assert CryptoFrame(offset=10, length=5).end == 15


def test_stream_frame_validation():
    with pytest.raises(ValueError):
        StreamFrame(stream_id=0, offset=0, length=0, fin=False)
    empty_fin = StreamFrame(stream_id=0, offset=4, length=0, fin=True)
    assert empty_fin.end == 4


def test_stream_frame_fin_roundtrip():
    frame = StreamFrame(stream_id=8, offset=100, length=50, fin=True)
    decoded = decode_frames(frame.encode())[0]
    assert decoded.stream_id == 8
    assert decoded.offset == 100
    assert decoded.length == 50
    assert decoded.fin


def test_padding_runs_collapse():
    payload = PaddingFrame(length=5).encode() + PingFrame().encode()
    frames = decode_frames(payload)
    assert isinstance(frames[0], PaddingFrame)
    assert frames[0].length == 5
    assert isinstance(frames[1], PingFrame)


def test_new_connection_id_validation():
    with pytest.raises(ValueError):
        NewConnectionIdFrame(sequence=1, retire_prior_to=2)
    with pytest.raises(ValueError):
        NewConnectionIdFrame(sequence=1, retire_prior_to=0, connection_id=b"")


def test_multiple_frames_decode_in_order():
    payload = (
        AckFrame(ranges=((0, 1),)).encode()
        + CryptoFrame(offset=0, length=9).encode()
        + PaddingFrame(length=3).encode()
    )
    frames = decode_frames(payload)
    assert [type(f).__name__ for f in frames] == [
        "AckFrame", "CryptoFrame", "PaddingFrame",
    ]


def test_unknown_frame_type_raises():
    with pytest.raises(ValueError):
        decode_frames(b"\x21")


@given(
    st.lists(
        st.tuples(st.integers(0, 500), st.integers(0, 200)),
        min_size=1,
        max_size=5,
    ),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_ack_frame_roundtrip_property(raw_ranges, delay):
    # Build valid, disjoint, descending ranges from arbitrary pairs.
    spans = sorted(
        {(low, low + width) for low, width in raw_ranges},
        reverse=True,
    )
    cleaned = []
    floor = None
    for low, high in spans:
        if floor is not None and high >= floor - 1:
            continue
        cleaned.append((low, high))
        floor = low
    ack = AckFrame(ranges=tuple(cleaned), ack_delay_ms=delay)
    decoded = decode_frames(ack.encode())[0]
    assert decoded.ranges == ack.ranges
    assert len(ack.encode()) == ack.wire_size()


@given(st.integers(0, 1 << 20), st.integers(1, 2000))
def test_crypto_frame_roundtrip_property(offset, length):
    frame = CryptoFrame(offset=offset, length=length)
    decoded = decode_frames(frame.encode())[0]
    assert (decoded.offset, decoded.length) == (offset, length)
    assert frame.wire_size() == len(frame.encode())
