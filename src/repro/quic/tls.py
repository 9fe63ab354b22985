"""Simulated TLS 1.3 handshake messages (sizes and ordering only).

The QUIC handshake embeds TLS 1.3 in CRYPTO frames: the client sends a
ClientHello; the server responds with ServerHello in the Initial space
and EncryptedExtensions, Certificate, CertificateVerify, and Finished
in the Handshake space; the client finishes with its own Finished.

No cryptography is performed — the paper's effects depend on message
*sizes* (amplification limit, coalescing) and *processing time*
(signature computation is "the single most CPU consuming function",
§4.1), both of which are modelled here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.quic.certs import Certificate

# Representative TLS 1.3 message sizes in bytes. The ClientHello size
# matches a typical browser hello with a few extensions; the others are
# standard for an RSA-2048 certificate chain.
CLIENT_HELLO_SIZE = 280
SERVER_HELLO_SIZE = 123
ENCRYPTED_EXTENSIONS_SIZE = 78
CERTIFICATE_MSG_OVERHEAD = 9  # handshake header + context + list length
CERTIFICATE_VERIFY_SIZE = 264  # RSA-PSS 2048-bit signature + header
FINISHED_SIZE = 36  # SHA-256 verify_data + header


@dataclass(frozen=True)
class TlsMessage:
    """One TLS handshake message with its encoded size."""

    name: str
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"TLS message size must be positive: {self.size}")


# Messages are immutable values, so every connection shares these.
_CLIENT_HELLO = TlsMessage("CH", CLIENT_HELLO_SIZE)
_SERVER_HELLO = TlsMessage("SH", SERVER_HELLO_SIZE)
_ENCRYPTED_EXTENSIONS = TlsMessage("EE", ENCRYPTED_EXTENSIONS_SIZE)
_CERTIFICATE_VERIFY = TlsMessage("CV", CERTIFICATE_VERIFY_SIZE)
_FINISHED = TlsMessage("FIN", FINISHED_SIZE)


def client_hello() -> TlsMessage:
    """The TLS ClientHello the client puts in its first Initial packet."""
    return _CLIENT_HELLO


def server_hello() -> TlsMessage:
    """The ServerHello, sent in the Initial packet number space."""
    return _SERVER_HELLO


def server_handshake_messages(certificate: Certificate) -> List[TlsMessage]:
    """EE, Certificate, CertificateVerify, Finished — the Handshake
    space portion of the first server flight."""
    return [
        _ENCRYPTED_EXTENSIONS,
        TlsMessage("CERT", CERTIFICATE_MSG_OVERHEAD + certificate.chain_size),
        _CERTIFICATE_VERIFY,
        _FINISHED,
    ]


def client_finished() -> TlsMessage:
    """The client Finished, closing the handshake."""
    return _FINISHED


def server_flight_size(certificate: Certificate) -> Tuple[int, int]:
    """(initial_crypto_bytes, handshake_crypto_bytes) of the first
    server flight for a given certificate."""
    hs = sum(m.size for m in server_handshake_messages(certificate))
    return SERVER_HELLO_SIZE, hs


class CryptoSendBuffer:
    """Outgoing CRYPTO stream for one packet number space.

    Tracks which byte ranges have been sent/acknowledged so that lost
    handshake data can be retransmitted (RFC 9000 §19.6). Data content
    is abstract; only offsets, lengths, and labels are kept.
    """

    def __init__(self) -> None:
        self._length = 0
        self._labels: List[Tuple[int, int, str]] = []  # (start, end, label)
        self._acked: List[Tuple[int, int]] = []  # merged (start, end)

    def append(self, message: TlsMessage) -> Tuple[int, int]:
        """Queue a TLS message; returns its (offset, length)."""
        start = self._length
        self._length += message.size
        self._labels.append((start, self._length, message.name))
        return start, message.size

    @property
    def length(self) -> int:
        return self._length

    def label_for(self, start: int, end: int) -> str:
        """Comma-joined message names overlapping [start, end)."""
        names = [
            name
            for (s, e, name) in self._labels
            if s < end and e > start
        ]
        return ",".join(names)

    def mark_acked(self, start: int, end: int) -> None:
        """Record [start, end) as acknowledged (merging ranges)."""
        if start >= end:
            return
        merged: List[Tuple[int, int]] = []
        new = (start, end)
        for rng in self._acked:
            if rng[1] < new[0] or rng[0] > new[1]:
                merged.append(rng)
            else:
                new = (min(new[0], rng[0]), max(new[1], rng[1]))
        merged.append(new)
        merged.sort()
        self._acked = merged

    def unacked_ranges(self) -> List[Tuple[int, int]]:
        """Byte ranges queued but not yet acknowledged."""
        out: List[Tuple[int, int]] = []
        cursor = 0
        for start, end in self._acked:
            if cursor < start:
                out.append((cursor, min(start, self._length)))
            cursor = max(cursor, end)
        if cursor < self._length:
            out.append((cursor, self._length))
        return out

    @property
    def fully_acked(self) -> bool:
        return self._length == 0 or not self.unacked_ranges()


class CryptoReceiveBuffer:
    """Incoming CRYPTO stream reassembly for one space.

    Tracks contiguous delivery so the endpoint knows when a full
    flight (e.g. SH, or EE..FIN) has arrived.
    """

    def __init__(self) -> None:
        self._ranges: List[Tuple[int, int]] = []

    def receive(self, offset: int, length: int) -> None:
        if length <= 0:
            return
        self._ranges.append((offset, offset + length))
        self._ranges.sort()
        merged: List[Tuple[int, int]] = []
        for start, end in self._ranges:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        self._ranges = merged

    def contiguous_length(self) -> int:
        """Bytes available from offset 0 without gaps."""
        if not self._ranges or self._ranges[0][0] != 0:
            return 0
        return self._ranges[0][1]

    def has(self, length: int) -> bool:
        """Whether the first ``length`` bytes have fully arrived."""
        return self.contiguous_length() >= length
