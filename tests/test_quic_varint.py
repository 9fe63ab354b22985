"""Tests for the QUIC varint codec, including property-based ones."""

import pytest
from hypothesis import given, strategies as st

from repro.quic.varint import (
    MAX_VARINT,
    VarintError,
    encode_varint,
    varint_size,
)
from tests.wire_codec import decode_varint


@pytest.mark.parametrize(
    "value,size",
    [(0, 1), (63, 1), (64, 2), (16383, 2), (16384, 4), ((1 << 30) - 1, 4),
     (1 << 30, 8), (MAX_VARINT, 8)],
)
def test_varint_size_boundaries(value, size):
    assert varint_size(value) == size
    assert len(encode_varint(value)) == size


def test_known_rfc_encodings():
    # RFC 9000 Appendix A.1 sample values.
    assert encode_varint(151_288_809_941_952_652) == bytes.fromhex(
        "c2197c5eff14e88c"
    )
    assert encode_varint(494_878_333) == bytes.fromhex("9d7f3e7d")
    assert encode_varint(15_293) == bytes.fromhex("7bbd")
    assert encode_varint(37) == bytes.fromhex("25")


def test_decode_known_values():
    assert decode_varint(bytes.fromhex("7bbd")) == (15_293, 2)
    assert decode_varint(bytes.fromhex("25")) == (37, 1)


def test_decode_with_offset():
    data = b"\xff" + encode_varint(1000)
    value, end = decode_varint(data, offset=1)
    assert value == 1000
    assert end == len(data)


def test_out_of_range_values():
    with pytest.raises(VarintError):
        encode_varint(-1)
    with pytest.raises(VarintError):
        encode_varint(MAX_VARINT + 1)


def test_truncated_decode():
    with pytest.raises(VarintError):
        decode_varint(b"")
    with pytest.raises(VarintError):
        decode_varint(encode_varint(100000)[:-1])


@given(st.integers(min_value=0, max_value=MAX_VARINT))
def test_roundtrip(value):
    encoded = encode_varint(value)
    decoded, consumed = decode_varint(encoded)
    assert decoded == value
    assert consumed == len(encoded)


@given(st.integers(min_value=0, max_value=MAX_VARINT))
def test_encoding_is_minimal(value):
    assert len(encode_varint(value)) == varint_size(value)
