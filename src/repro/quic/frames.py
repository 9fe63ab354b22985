"""QUIC frames (RFC 9000 §19) with byte-accurate wire sizes.

Each frame knows its wire size and can encode itself to bytes (the
tests decode those bytes to check the sizes). Payload-carrying frames
(CRYPTO, STREAM) track a length and a human-readable ``label``
describing the simulated content (e.g. ``"SH"`` for the TLS
ServerHello); encoded payload bytes are zeros, since only sizes and
ordering affect handshake timing.

The ``ack_eliciting`` class attribute implements RFC 9002 §2: all frames other
than ACK, PADDING, and CONNECTION_CLOSE are ack-eliciting. This single
property is the root cause of the paper's Figure 6 result — an instant
ACK elicits no acknowledgment, so the *server* never obtains an RTT
sample from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.quic.varint import encode_varint, varint_size
from repro.sim.trace import precomputed_state

# Frame type identifiers from RFC 9000 §19.
TYPE_PADDING = 0x00
TYPE_PING = 0x01
TYPE_ACK = 0x02
TYPE_CRYPTO = 0x06
TYPE_MAX_DATA = 0x10
TYPE_NEW_CONNECTION_ID = 0x18
TYPE_RETIRE_CONNECTION_ID = 0x19
TYPE_CONNECTION_CLOSE = 0x1C
TYPE_HANDSHAKE_DONE = 0x1E
TYPE_STREAM_BASE = 0x08  # 0x08..0x0f with OFF/LEN/FIN bits

#: Microsecond exponent used when encoding ACK delay (RFC 9000 §18.2
#: default ack_delay_exponent is 3 → units of 8 µs).
ACK_DELAY_EXPONENT = 3


@dataclass(frozen=True, slots=True)
class Frame:
    """Base class for all frames."""

    #: RFC 9002 §2: everything but ACK, PADDING, CONNECTION_CLOSE.
    ack_eliciting = True

    def wire_size(self) -> int:
        raise NotImplementedError

    def encode(self) -> bytes:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class PaddingFrame(Frame):
    """A run of PADDING bytes (each padding byte is its own frame on
    the wire; we aggregate a run into one object)."""

    ack_eliciting = False

    length: int = 1

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"padding length must be >= 1, got {self.length}")

    def wire_size(self) -> int:
        return self.length

    def encode(self) -> bytes:
        return b"\x00" * self.length

    def describe(self) -> str:
        return f"PADDING[{self.length}]"


@dataclass(frozen=True, slots=True)
class PingFrame(Frame):
    """PING: ack-eliciting, carries no information (RFC 9000 §19.2)."""

    def wire_size(self) -> int:
        return 1

    def encode(self) -> bytes:
        return bytes([TYPE_PING])

    def describe(self) -> str:
        return "PING"


@dataclass(frozen=True, slots=True)
class AckFrame(Frame):
    """ACK with ranges and an acknowledgment delay (RFC 9000 §19.3).

    ``ranges`` is a list of disjoint inclusive ``(low, high)``
    packet-number ranges sorted descending; ``ranges[0][1]`` is the
    largest acknowledged packet number.
    """

    ack_eliciting = False

    ranges: Tuple[Tuple[int, int], ...]
    ack_delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if not self.ranges:
            raise ValueError("ACK frame requires at least one range")
        for low, high in self.ranges:
            if low > high or low < 0:
                raise ValueError(f"invalid ACK range ({low}, {high})")
        for (low, _high), (_low, below) in zip(self.ranges, self.ranges[1:]):
            if below >= low:
                raise ValueError("ACK ranges must be disjoint and sorted descending")
        if self.ack_delay_ms < 0:
            raise ValueError("ack delay cannot be negative")

    def acks(self, pn: int) -> bool:
        """Whether packet number ``pn`` is covered by this frame."""
        return any(low <= pn <= high for low, high in self.ranges)

    def _delay_units(self) -> int:
        return max(0, int(self.ack_delay_ms * 1000.0 / (1 << ACK_DELAY_EXPONENT)))

    def wire_size(self) -> int:
        largest = self.ranges[0][1]
        first_range = largest - self.ranges[0][0]
        size = (
            1
            + varint_size(largest)
            + varint_size(self._delay_units())
            + varint_size(len(self.ranges) - 1)
            + varint_size(first_range)
        )
        prev_low = self.ranges[0][0]
        for low, high in self.ranges[1:]:
            gap = prev_low - high - 2
            size += varint_size(gap) + varint_size(high - low)
            prev_low = low
        return size

    def encode(self) -> bytes:
        largest = self.ranges[0][1]
        out = bytearray([TYPE_ACK])
        out += encode_varint(largest)
        out += encode_varint(self._delay_units())
        out += encode_varint(len(self.ranges) - 1)
        out += encode_varint(largest - self.ranges[0][0])
        prev_low = self.ranges[0][0]
        for low, high in self.ranges[1:]:
            out += encode_varint(prev_low - high - 2)
            out += encode_varint(high - low)
            prev_low = low
        return bytes(out)

    def describe(self) -> str:
        parts = ",".join(
            f"{low}" if low == high else f"{low}-{high}" for low, high in self.ranges
        )
        return f"ACK[{parts}]"


@dataclass(frozen=True, slots=True)
class CryptoFrame(Frame):
    """CRYPTO carrying a slice of the TLS handshake stream (§19.6).

    ``label`` names the simulated TLS content (e.g. ``"CH"``, ``"SH"``,
    ``"EE,CERT,CV,FIN"``) for traces and tests.
    """

    offset: int
    length: int
    label: str = ""
    #: Simulation metadata (not on the wire): total length of the TLS
    #: stream in this space, so the receiver knows when the flight is
    #: complete — standing in for parsing TLS message headers.
    stream_total: int = 0

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length <= 0:
            raise ValueError(
                f"invalid CRYPTO frame offset={self.offset} length={self.length}"
            )

    def wire_size(self) -> int:
        return 1 + varint_size(self.offset) + varint_size(self.length) + self.length

    def encode(self) -> bytes:
        return (
            bytes([TYPE_CRYPTO])
            + encode_varint(self.offset)
            + encode_varint(self.length)
            + b"\x00" * self.length
        )

    @property
    def end(self) -> int:
        return self.offset + self.length

    def describe(self) -> str:
        tag = self.label or "?"
        return f"CRYPTO[{tag} {self.offset}+{self.length}]"


@dataclass(frozen=True, slots=True)
class StreamFrame(Frame):
    """STREAM data (§19.8). Always encoded with OFF and LEN bits set."""

    stream_id: int
    offset: int
    length: int
    fin: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        if self.stream_id < 0 or self.offset < 0 or self.length < 0:
            raise ValueError("invalid STREAM frame fields")
        if self.length == 0 and not self.fin:
            raise ValueError("empty STREAM frame must carry FIN")

    def wire_size(self) -> int:
        return (
            1
            + varint_size(self.stream_id)
            + varint_size(self.offset)
            + varint_size(self.length)
            + self.length
        )

    def encode(self) -> bytes:
        frame_type = TYPE_STREAM_BASE | 0x04 | 0x02  # OFF | LEN
        if self.fin:
            frame_type |= 0x01
        return (
            bytes([frame_type])
            + encode_varint(self.stream_id)
            + encode_varint(self.offset)
            + encode_varint(self.length)
            + b"\x00" * self.length
        )

    @property
    def end(self) -> int:
        return self.offset + self.length

    def describe(self) -> str:
        fin = " FIN" if self.fin else ""
        tag = f" {self.label}" if self.label else ""
        return f"STREAM[{self.stream_id} {self.offset}+{self.length}{fin}{tag}]"


@dataclass(frozen=True, slots=True)
class MaxDataFrame(Frame):
    """MAX_DATA connection flow-control update (§19.9).

    Ack-eliciting — during a download these updates are the client's
    main source of RTT samples (the Figure 11 mechanism).
    """

    maximum: int

    def __post_init__(self) -> None:
        if self.maximum < 0:
            raise ValueError("flow-control maximum cannot be negative")

    def wire_size(self) -> int:
        return 1 + varint_size(self.maximum)

    def encode(self) -> bytes:
        return bytes([TYPE_MAX_DATA]) + encode_varint(self.maximum)

    def describe(self) -> str:
        return f"MAX_DATA[{self.maximum}]"


@dataclass(frozen=True, slots=True)
class HandshakeDoneFrame(Frame):
    """HANDSHAKE_DONE (§19.20): server-only, confirms the handshake."""

    def wire_size(self) -> int:
        return 1

    def encode(self) -> bytes:
        return bytes([TYPE_HANDSHAKE_DONE])

    def describe(self) -> str:
        return "HANDSHAKE_DONE"


@dataclass(frozen=True, slots=True)
class NewConnectionIdFrame(Frame):
    """NEW_CONNECTION_ID (§19.15); CID is carried as opaque bytes."""

    sequence: int
    retire_prior_to: int
    connection_id: bytes = field(default=b"\x00" * 8)

    def __post_init__(self) -> None:
        if not 1 <= len(self.connection_id) <= 20:
            raise ValueError("connection ID must be 1..20 bytes")
        if self.sequence < 0 or self.retire_prior_to < 0:
            raise ValueError("sequence numbers must be non-negative")
        if self.retire_prior_to > self.sequence:
            raise ValueError("retire_prior_to cannot exceed sequence")

    def wire_size(self) -> int:
        return (
            1
            + varint_size(self.sequence)
            + varint_size(self.retire_prior_to)
            + 1
            + len(self.connection_id)
            + 16  # stateless reset token
        )

    def encode(self) -> bytes:
        return (
            bytes([TYPE_NEW_CONNECTION_ID])
            + encode_varint(self.sequence)
            + encode_varint(self.retire_prior_to)
            + bytes([len(self.connection_id)])
            + self.connection_id
            + b"\x00" * 16
        )

    def describe(self) -> str:
        return f"NEW_CONNECTION_ID[seq={self.sequence} rpt={self.retire_prior_to}]"


@dataclass(frozen=True, slots=True)
class RetireConnectionIdFrame(Frame):
    """RETIRE_CONNECTION_ID (§19.16)."""

    sequence: int

    def __post_init__(self) -> None:
        if self.sequence < 0:
            raise ValueError("sequence must be non-negative")

    def wire_size(self) -> int:
        return 1 + varint_size(self.sequence)

    def encode(self) -> bytes:
        return bytes([TYPE_RETIRE_CONNECTION_ID]) + encode_varint(self.sequence)

    def describe(self) -> str:
        return f"RETIRE_CONNECTION_ID[{self.sequence}]"


@dataclass(frozen=True, slots=True)
class ConnectionCloseFrame(Frame):
    """CONNECTION_CLOSE (§19.19, transport variant 0x1c)."""

    ack_eliciting = False

    error_code: int = 0
    reason: str = ""

    def wire_size(self) -> int:
        reason = self.reason.encode()
        return (
            1
            + varint_size(self.error_code)
            + 1  # frame type field (varint, always small here)
            + varint_size(len(reason))
            + len(reason)
        )

    def encode(self) -> bytes:
        reason = self.reason.encode()
        return (
            bytes([TYPE_CONNECTION_CLOSE])
            + encode_varint(self.error_code)
            + b"\x00"
            + encode_varint(len(reason))
            + reason
        )

    def describe(self) -> str:
        return f"CONNECTION_CLOSE[{self.error_code} {self.reason!r}]"


for _frame_class in (
    PaddingFrame, PingFrame, AckFrame, CryptoFrame, StreamFrame, MaxDataFrame,
    HandshakeDoneFrame, NewConnectionIdFrame, RetireConnectionIdFrame, ConnectionCloseFrame,
):
    precomputed_state(_frame_class)  # frames ride in every retained packet
