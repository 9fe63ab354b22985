"""Implementation profiles for the QUIC stacks the paper studies.

The paper's testbed runs eight client implementations (aioquic,
go-x-net, mvfst, neqo, ngtcp2, picoquic, quic-go, quiche) against a
quic-go server modified to support instant ACK, and its Appendix D
additionally surveys the first-ACK delay of 16 server stacks
(Table 3). :class:`~repro.impls.profile.ImplProfile` captures every
behavioral parameter the paper attributes to a specific stack:
default PTO and second-flight coalescing (Table 4), RTT formula and
qlog exposure differences (Appendix E), and the quirks of §4
(go-x-net misinitialization, mvfst/picoquic probe suppression, quiche
PING-reply and CID-retirement behavior).
"""

from repro.impls.profile import ImplProfile, SecondFlightVariant
from repro.impls.registry import (
    CLIENT_PROFILES,
    SERVER_PROFILES,
    client_profile,
    QUIC_GO_SERVER,
)

__all__ = [
    "ImplProfile",
    "SecondFlightVariant",
    "CLIENT_PROFILES",
    "SERVER_PROFILES",
    "client_profile",
    "QUIC_GO_SERVER",
]
