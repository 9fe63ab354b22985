"""UDP datagrams and QUIC packet coalescing (RFC 9000 §12.2).

Multiple QUIC packets can be coalesced into one UDP datagram —
"an entire flight can be transmitted in one datagram" (§3 of the
paper). Implementations use coalescing to different extents, which is
why the paper's loss experiments match *datagram indices* to QUIC
content per implementation (Table 4). :class:`Datagram` models one UDP
datagram carrying one or more packets; :func:`pad_initial` applies the
client-side rule that datagrams containing Initial packets must be at
least 1200 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.quic.frames import CryptoFrame, PaddingFrame
from repro.quic.packet import INITIAL_MIN_DATAGRAM, Packet, PacketType

#: Maximum UDP payload used by the testbed endpoints.
MAX_DATAGRAM_SIZE = 1200


@dataclass(slots=True)
class Datagram:
    """One UDP datagram containing coalesced QUIC packets."""

    packets: Tuple[Packet, ...]
    sender: str = ""
    # Slot names are pickle format (see Packet); read ``_size`` as ``size``.
    _size: int = field(init=False, repr=False, compare=False)
    _contains_crypto: Optional[bool] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.packets:
            raise ValueError("datagram must contain at least one packet")
        packets = self.packets = tuple(self.packets)
        if len(packets) > 1:
            self._validate_order()
        size = 0
        for packet in packets:
            size += packet.size
        self._size = size

    def _validate_order(self) -> None:
        """RFC 9000 §12.2: packet with short header must come last, and
        encryption-level order must be non-decreasing."""
        order = [p.space for p in self.packets]
        if order != sorted(order):
            raise ValueError(
                "coalesced packets must be ordered Initial < Handshake < 1-RTT"
            )

    def contains_initial(self) -> bool:
        return any(p.packet_type is PacketType.INITIAL for p in self.packets)

    def contains_crypto(self) -> bool:
        """Whether any packet carries TLS handshake data — used to
        model the client-side processing penalty for coalesced
        ACK–ServerHello flights."""
        cached = self._contains_crypto
        if cached is None:
            cached = self._contains_crypto = any(
                type(frame) is CryptoFrame
                for packet in self.packets
                for frame in packet.frames
            )
        return cached

    def describe(self) -> str:
        return " | ".join(packet.describe() for packet in self.packets)


Datagram.size = Datagram._size  # type: ignore[attr-defined]


def pad_packet_to(packet: Packet, target_payload_increase: int) -> Packet:
    """Return a copy of ``packet`` with PADDING appended."""
    if target_payload_increase <= 0:
        return packet
    return Packet(
        packet_type=packet.packet_type,
        packet_number=packet.packet_number,
        frames=packet.frames + (PaddingFrame(length=target_payload_increase),),
        dcid=packet.dcid,
        scid=packet.scid,
        token=packet.token,
        pn_length=packet.pn_length,
    )


def pad_initial(packets: List[Packet], minimum: int = INITIAL_MIN_DATAGRAM) -> List[Packet]:
    """Pad a packet list destined for one datagram to ``minimum`` bytes.

    RFC 9000 §14.1: a client MUST expand datagrams containing Initial
    packets to at least 1200 bytes. Padding is added to the *last*
    packet in the datagram (common implementation behavior).
    """
    total = sum(p.size for p in packets)
    deficit = minimum - total
    if deficit <= 0:
        return list(packets)
    padded = list(packets)
    padded[-1] = pad_packet_to(padded[-1], deficit)
    return padded


def coalesce_groups(
    packets: Iterable[Packet], max_datagram_size: int = MAX_DATAGRAM_SIZE
) -> List[List[Packet]]:
    """Greedily pack packets into groups of at most ``max_datagram_size``
    bytes, one group per future datagram.

    Packets larger than the limit get a group of their own (the
    simulation treats path MTU as not enforced for such packets, which
    does not occur with the default frame sizing).
    """
    groups: List[List[Packet]] = []
    current: List[Packet] = []
    current_size = 0
    for packet in packets:
        size = packet.size
        if current and current_size + size > max_datagram_size:
            groups.append(current)
            current = []
            current_size = 0
        current.append(packet)
        current_size += size
    if current:
        groups.append(current)
    return groups


def coalesce(
    packets: Iterable[Packet],
    max_datagram_size: int = MAX_DATAGRAM_SIZE,
    sender: str = "",
) -> List[Datagram]:
    """:func:`coalesce_groups`, each group built into a :class:`Datagram`."""
    return [
        Datagram(group, sender) for group in coalesce_groups(packets, max_datagram_size)
    ]
