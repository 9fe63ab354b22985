"""The decoding half of the QUIC wire codec, as a test oracle.

The simulator sizes frames arithmetically (``wire_size``) and never
parses bytes; :mod:`repro.quic.frames` keeps ``encode`` so the tests can
check each size against real bytes. Decoding those bytes back is only a
test's concern, so it lives here: RFC 9000 §16 varints and §19 frames.
"""

from typing import List, Tuple

from repro.quic.frames import (
    ACK_DELAY_EXPONENT,
    TYPE_ACK,
    TYPE_CRYPTO,
    TYPE_HANDSHAKE_DONE,
    TYPE_MAX_DATA,
    TYPE_NEW_CONNECTION_ID,
    TYPE_PADDING,
    TYPE_PING,
    TYPE_STREAM_BASE,
    AckFrame,
    CryptoFrame,
    Frame,
    HandshakeDoneFrame,
    MaxDataFrame,
    NewConnectionIdFrame,
    PaddingFrame,
    PingFrame,
    StreamFrame,
)
from repro.quic.varint import VarintError


class FrameDecodeError(ValueError):
    """Raised when bytes cannot be parsed as a QUIC frame."""


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a varint from ``data`` at ``offset``.

    Returns ``(value, new_offset)``.
    """
    if offset >= len(data):
        raise VarintError("varint truncated: no bytes available")
    first = data[offset]
    prefix = first >> 6
    length = 1 << prefix
    if offset + length > len(data):
        raise VarintError(
            f"varint truncated: need {length} bytes at offset {offset}, "
            f"have {len(data) - offset}"
        )
    value = first & 0x3F
    for i in range(1, length):
        value = (value << 8) | data[offset + i]
    return value, offset + length


def decode_frames(data: bytes) -> List[Frame]:
    """Decode a packet payload into frames.

    Runs of PADDING collapse into a single :class:`PaddingFrame`.
    CRYPTO/STREAM payload content is discarded (zeros), retaining
    offset/length as the simulation requires.
    """
    frames: List[Frame] = []
    offset = 0
    n = len(data)
    while offset < n:
        frame_type = data[offset]
        if frame_type == TYPE_PADDING:
            start = offset
            while offset < n and data[offset] == TYPE_PADDING:
                offset += 1
            frames.append(PaddingFrame(length=offset - start))
        elif frame_type == TYPE_PING:
            frames.append(PingFrame())
            offset += 1
        elif frame_type == TYPE_ACK:
            offset += 1
            largest, offset = decode_varint(data, offset)
            delay_units, offset = decode_varint(data, offset)
            range_count, offset = decode_varint(data, offset)
            first_range, offset = decode_varint(data, offset)
            ranges = [(largest - first_range, largest)]
            prev_low = largest - first_range
            for _ in range(range_count):
                gap, offset = decode_varint(data, offset)
                rng_len, offset = decode_varint(data, offset)
                high = prev_low - gap - 2
                low = high - rng_len
                ranges.append((low, high))
                prev_low = low
            delay_ms = delay_units * (1 << ACK_DELAY_EXPONENT) / 1000.0
            frames.append(AckFrame(ranges=tuple(ranges), ack_delay_ms=delay_ms))
        elif frame_type == TYPE_CRYPTO:
            offset += 1
            off, offset = decode_varint(data, offset)
            length, offset = decode_varint(data, offset)
            if offset + length > n:
                raise FrameDecodeError("CRYPTO frame payload truncated")
            offset += length
            frames.append(CryptoFrame(offset=off, length=length))
        elif TYPE_STREAM_BASE <= frame_type <= TYPE_STREAM_BASE + 0x07:
            fin = bool(frame_type & 0x01)
            offset += 1
            stream_id, offset = decode_varint(data, offset)
            off, offset = decode_varint(data, offset)
            length, offset = decode_varint(data, offset)
            if offset + length > n:
                raise FrameDecodeError("STREAM frame payload truncated")
            offset += length
            frames.append(
                StreamFrame(stream_id=stream_id, offset=off, length=length, fin=fin)
            )
        elif frame_type == TYPE_MAX_DATA:
            offset += 1
            maximum, offset = decode_varint(data, offset)
            frames.append(MaxDataFrame(maximum=maximum))
        elif frame_type == TYPE_HANDSHAKE_DONE:
            frames.append(HandshakeDoneFrame())
            offset += 1
        elif frame_type == TYPE_NEW_CONNECTION_ID:
            offset += 1
            seq, offset = decode_varint(data, offset)
            rpt, offset = decode_varint(data, offset)
            cid_len = data[offset]
            offset += 1
            cid = data[offset : offset + cid_len]
            offset += cid_len + 16
            frames.append(
                NewConnectionIdFrame(sequence=seq, retire_prior_to=rpt, connection_id=cid)
            )
        else:
            raise FrameDecodeError(f"unknown frame type 0x{frame_type:02x}")
    return frames
