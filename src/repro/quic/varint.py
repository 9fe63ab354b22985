"""QUIC variable-length integer encoding (RFC 9000 §16).

A varint uses the two most significant bits of the first byte to encode
the total length (1, 2, 4, or 8 bytes), leaving 6, 14, 30, or 62 bits
for the value.
"""

from __future__ import annotations

#: Largest value representable as a QUIC varint (2**62 - 1).
MAX_VARINT = (1 << 62) - 1


class VarintError(ValueError):
    """Raised on values outside the varint range."""


def varint_size(value: int) -> int:
    """Number of bytes needed to encode ``value`` as a varint."""
    if value < 0:
        raise VarintError(f"varint cannot encode negative value {value}")
    if value <= 0x3F:
        return 1
    if value <= 0x3FFF:
        return 2
    if value <= 0x3FFFFFFF:
        return 4
    if value <= MAX_VARINT:
        return 8
    raise VarintError(f"value {value} exceeds varint range")


def encode_varint(value: int) -> bytes:
    """Encode ``value`` in the fewest bytes possible."""
    size = varint_size(value)
    if size == 1:
        return bytes([value])
    if size == 2:
        return bytes([0x40 | (value >> 8), value & 0xFF])
    if size == 4:
        return bytes(
            [
                0x80 | (value >> 24),
                (value >> 16) & 0xFF,
                (value >> 8) & 0xFF,
                value & 0xFF,
            ]
        )
    out = bytearray(8)
    for i in range(7, -1, -1):
        out[i] = value & 0xFF
        value >>= 8
    out[0] |= 0xC0
    return bytes(out)
