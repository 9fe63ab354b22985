"""A from-scratch QUIC implementation for handshake-timing research.

Implements the protocol mechanics of RFC 9000 (transport) and RFC 9002
(loss detection and congestion control) that determine the behavior the
paper studies:

* packet number spaces, ack-eliciting rules, and coalescing,
* the RTT estimator and Probe Timeout (PTO) including the
  first-sample initialization that instant ACK exploits,
* the 3x anti-amplification limit with address validation,
* CRYPTO/STREAM retransmission and PTO probes,
* the server-side **instant ACK (IACK)** versus
  **wait-for-certificate (WFC)** policies of Figure 1.

TLS 1.3 is simulated at message granularity with byte-accurate sizes
(:mod:`repro.quic.tls`); no actual cryptography is performed, which is
sufficient because only sizes, ordering, and processing delays affect
handshake timing.
"""

from repro.quic.amplification import AmplificationLimiter
from repro.quic.certs import LARGE_CERTIFICATE, SMALL_CERTIFICATE, Certificate
from repro.quic.client import ClientConnection
from repro.quic.coalescing import Datagram
from repro.quic.frames import (
    AckFrame,
    CryptoFrame,
    Frame,
    HandshakeDoneFrame,
    NewConnectionIdFrame,
    PaddingFrame,
    PingFrame,
    StreamFrame,
)
from repro.quic.packet import Packet, PacketType, Space
from repro.quic.recovery import Recovery, RttEstimator
from repro.quic.server import ServerConnection, ServerMode

__all__ = [
    "Packet",
    "PacketType",
    "Space",
    "Frame",
    "AckFrame",
    "CryptoFrame",
    "StreamFrame",
    "PingFrame",
    "PaddingFrame",
    "HandshakeDoneFrame",
    "NewConnectionIdFrame",
    "Datagram",
    "Recovery",
    "RttEstimator",
    "AmplificationLimiter",
    "Certificate",
    "SMALL_CERTIFICATE",
    "LARGE_CERTIFICATE",
    "ClientConnection",
    "ServerConnection",
    "ServerMode",
]
