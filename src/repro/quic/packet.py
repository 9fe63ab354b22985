"""QUIC packets and packet number spaces (RFC 9000 §12, §17).

A :class:`Packet` is a typed container of frames belonging to one
packet number space. Header sizes are byte-accurate for the header
shapes used during a handshake (long headers for Initial/Handshake,
short header for 1-RTT), including the 16-byte AEAD tag; header
protection and encryption themselves are simulated (the simulated AEAD
tag is zeros), since only sizes and ordering affect timing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

from repro.quic.frames import AckFrame, CryptoFrame, Frame, StreamFrame
from repro.quic.varint import varint_size

#: Minimum size of client datagrams carrying Initial packets (RFC 9000 §14.1).
INITIAL_MIN_DATAGRAM = 1200

#: AEAD authentication tag appended to every protected packet.
AEAD_TAG_SIZE = 16

#: QUIC version 1.
QUIC_VERSION = 0x00000001


class Space(enum.IntEnum):
    """Packet number spaces (RFC 9000 §12.3)."""

    INITIAL = 0
    HANDSHAKE = 1
    APPLICATION = 2


class PacketType(enum.Enum):
    INITIAL = "initial"
    HANDSHAKE = "handshake"
    ONE_RTT = "1rtt"
    RETRY = "retry"

    @property
    def space(self) -> Space:
        if self is PacketType.INITIAL:
            return Space.INITIAL
        if self is PacketType.HANDSHAKE:
            return Space.HANDSHAKE
        if self is PacketType.ONE_RTT:
            return Space.APPLICATION
        raise ValueError("Retry packets carry no packet number")


_INITIAL = PacketType.INITIAL
_HANDSHAKE = PacketType.HANDSHAKE
_ONE_RTT = PacketType.ONE_RTT


@dataclass(slots=True)
class Packet:
    """One QUIC packet: a type, a packet number, and frames.

    Frames are fixed after construction (padding helpers build new
    packets), so everything derived from them — the packet number
    space, ``ack_eliciting`` (RFC 9002 §2: any frame is) and the
    header/payload/wire byte counts — is computed once, here, and read
    as plain attributes (``space``, ``ack_eliciting``, ``size``) on the
    per-datagram path of recovery, coalescing and the link model.
    """

    packet_type: PacketType
    packet_number: int
    frames: Tuple[Frame, ...]
    dcid: bytes = b"\x11" * 8
    scid: bytes = b"\x22" * 8
    token: bytes = b""
    #: Packet-number encoding length in bytes (1..4).
    pn_length: int = 2
    # Derived slots. Their names are part of the pickle format (the
    # state of a non-frozen slots dataclass is keyed by slot name), so
    # stored artifacts, disk-cache entries and fleet frames written before
    # they became eager keep loading; ``space``, ``ack_eliciting`` and
    # ``size`` below the class are the public names for reading them.
    _payload_size: int = field(init=False, repr=False, compare=False)
    _header_size: int = field(init=False, repr=False, compare=False)
    _ack_eliciting: bool = field(init=False, repr=False, compare=False)
    _space: Space = field(init=False, repr=False, compare=False)
    _wire_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.packet_number < 0:
            raise ValueError("packet number must be non-negative")
        pn_length = self.pn_length
        if not 1 <= pn_length <= 4:
            raise ValueError("packet number length must be 1..4 bytes")
        frames = self.frames = tuple(self.frames)
        # Long header (§17.2): first byte, version (4), DCID len + DCID,
        # SCID len + SCID, [token length + token for Initial], length
        # field (varint covering pn + payload + tag), packet number.
        # Short header (§17.3): first byte, DCID, packet number.
        # (Identity tests, not a dict: hashing an Enum member is a
        # Python-level call.)
        packet_type = self.packet_type
        if packet_type is _ONE_RTT:
            self._space = Space.APPLICATION
            header = 1 + len(self.dcid)
        elif packet_type is _HANDSHAKE:
            self._space = Space.HANDSHAKE
            header = 7 + len(self.dcid) + len(self.scid)
        elif packet_type is _INITIAL:
            self._space = Space.INITIAL
            token = len(self.token)
            header = 7 + len(self.dcid) + len(self.scid) + varint_size(token) + token
        else:
            raise ValueError("Retry packets carry no packet number")
        payload = 0
        eliciting = False
        for frame in frames:
            payload += frame.wire_size()
            if frame.ack_eliciting:
                eliciting = True
        self._ack_eliciting = eliciting
        self._payload_size = payload
        if packet_type is not _ONE_RTT:
            header += varint_size(pn_length + payload + AEAD_TAG_SIZE)
        self._header_size = header = header + pn_length
        self._wire_size = header + payload + AEAD_TAG_SIZE

    @property
    def is_long_header(self) -> bool:
        return self.packet_type in (PacketType.INITIAL, PacketType.HANDSHAKE,
                                    PacketType.RETRY)

    def payload_size(self) -> int:
        return self._payload_size

    def header_size(self) -> int:
        """Byte-accurate header size for this packet's shape."""
        return self._header_size

    def wire_size(self) -> int:
        """Total bytes this packet occupies in a datagram."""
        return self._wire_size

    # -- content inspection helpers used by endpoints and analyses ----

    def ack_frames(self) -> Tuple[AckFrame, ...]:
        return tuple(f for f in self.frames if isinstance(f, AckFrame))

    def crypto_frames(self) -> Tuple[CryptoFrame, ...]:
        return tuple(f for f in self.frames if isinstance(f, CryptoFrame))

    def stream_frames(self) -> Tuple[StreamFrame, ...]:
        return tuple(f for f in self.frames if isinstance(f, StreamFrame))

    @property
    def ack_only(self) -> bool:
        """True when the packet carries nothing but ACK (and padding).

        An ACK-only packet is not ack-eliciting and is never
        acknowledged — the wire property that makes an instant ACK
        "invisible" to the server's RTT estimator.
        """
        return not self.ack_eliciting

    def describe(self) -> str:
        inner = ", ".join(frame.describe() for frame in self.frames)
        name = {
            PacketType.INITIAL: "Initial",
            PacketType.HANDSHAKE: "Handshake",
            PacketType.ONE_RTT: "1-RTT",
            PacketType.RETRY: "Retry",
        }[self.packet_type]
        return f"{name}[{self.packet_number}]: {inner}"


Packet.space = Packet._space  # type: ignore[attr-defined]
Packet.ack_eliciting = Packet._ack_eliciting  # type: ignore[attr-defined]
Packet.size = Packet._wire_size  # type: ignore[attr-defined]


@dataclass(slots=True)
class RetryPacket:
    """A Retry packet (RFC 9000 §17.2.5); used by the Retry extension.

    Retry packets carry no packet number and are not protected with
    the normal AEAD; they deliver a token the client must echo.
    """

    token: bytes
    dcid: bytes = b"\x11" * 8
    scid: bytes = b"\x33" * 8

    def wire_size(self) -> int:
        # first byte + version + cid fields + token + 16B integrity tag
        return 1 + 4 + 1 + len(self.dcid) + 1 + len(self.scid) + len(self.token) + 16

    def describe(self) -> str:
        return f"Retry[token={len(self.token)}B]"
