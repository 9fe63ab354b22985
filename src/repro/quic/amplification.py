"""Anti-amplification limit (RFC 9000 §8.1).

"To avoid amplification attacks, the server is limited to send 3x the
data received from the client until the client address is verified.
If the handshake exceeds this limit, the server needs to wait for
additional client data to increase its amplification budget." (§2 of
the paper.) This is the mechanism behind the Figure 5 experiment: with
a 5,113 B certificate the first server flight exceeds the budget and
the server *blocks*; earlier client probe packets — provoked by the
shorter PTO an instant ACK provides — unblock it sooner.
"""

from __future__ import annotations

#: RFC 9000 §8.1 amplification factor.
AMPLIFICATION_FACTOR = 3


class AmplificationLimiter:
    """Tracks the server's sending budget toward an unvalidated peer."""

    def __init__(self, factor: int = AMPLIFICATION_FACTOR):
        if factor <= 0:
            raise ValueError("amplification factor must be positive")
        self.factor = factor
        self._received = 0
        self._sent = 0
        self._validated = False
        self._blocked_events = 0

    @property
    def validated(self) -> bool:
        return self._validated

    @property
    def blocked_events(self) -> int:
        """How many times a send attempt was refused — the server logs
        the paper consults to confirm WFC blocks more often (§4.1)."""
        return self._blocked_events

    def on_datagram_received(self, size: int) -> None:
        """Credit the budget with a datagram from the (unvalidated) peer."""
        if size < 0:
            raise ValueError("datagram size cannot be negative")
        self._received += size

    def validate(self) -> None:
        """Mark the peer address as validated (e.g. on receipt of a
        Handshake packet or a valid Retry token); lifts the limit."""
        self._validated = True

    def budget(self) -> int:
        """Bytes that may still be sent right now."""
        if self._validated:
            return 1 << 62
        return self.factor * self._received - self._sent

    def can_send(self, size: int) -> bool:
        allowed = self._validated or (self._sent + size <= self.factor * self._received)
        if not allowed:
            self._blocked_events += 1
        return allowed

    def on_datagram_sent(self, size: int) -> None:
        if size < 0:
            raise ValueError("datagram size cannot be negative")
        self._sent += size
