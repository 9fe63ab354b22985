"""TLS certificates as size-bearing objects.

The paper arms the server with two certificates: one of 1,212 B that
allows a 1-RTT handshake and one of 5,113 B that pushes the first
server flight over the 3x anti-amplification limit (§3). Only the
encoded chain length matters for handshake timing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Certificate:
    """A TLS certificate chain with a known encoded size."""

    name: str
    chain_size: int

    def __post_init__(self) -> None:
        if self.chain_size <= 0:
            raise ValueError(f"certificate chain size must be positive: {self.chain_size}")


#: The 1,212 B certificate that permits a 1-RTT handshake (§3).
SMALL_CERTIFICATE = Certificate(name="small-1212", chain_size=1212)

#: The 5,113 B certificate that exceeds the anti-amplification limit (§3).
LARGE_CERTIFICATE = Certificate(name="large-5113", chain_size=5113)
