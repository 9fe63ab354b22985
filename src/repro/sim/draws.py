"""Purpose-keyed behavior randomness.

A connection consumes at most four random draws that influence its
*behavior* (and therefore its :class:`~repro.quic.connection
.ConnectionStats`): the client's coalesced-crypto processing jitter,
the quiche second-flight variant roll, the go-x-net srtt
mis-initialization roll, and the server's crypto-processing jitter.
Historically these shared one ``random.Random(f"{role}:{seed}")``
stream with the qlog writer's exposure-policy draws, so a behavior
draw's value depended on how many exposure draws happened to precede
it — a property of event interleaving, not of the cell.

:class:`BehaviorDraws` gives every behavior draw its own stream seeded
by ``(role, seed, purpose)``.  Each draw is then a pure function of the
cell.  The qlog exposure draws keep the original shared stream
untouched.
"""

from __future__ import annotations

import random
from typing import Optional

#: Purpose labels double as stream derivation keys; changing one is a
#: behavior-breaking change (it reshuffles every seed's draw).
PURPOSE_PENALTY_JITTER = "penalty-jitter"
PURPOSE_CRYPTO_JITTER = "crypto-jitter"
PURPOSE_SECOND_FLIGHT = "second-flight"
PURPOSE_MISINIT = "misinit"


class BehaviorDraws:
    """Behavior draws for one endpoint, derived from ``(role, seed)``.

    String seeds are hashed (SHA-512) by :class:`random.Random`, so
    every purpose stream is well mixed even for sequential seeds.
    """

    __slots__ = ("role", "seed")

    def __init__(self, role: str, seed: int):
        self.role = role
        self.seed = seed

    def _stream(self, purpose: str) -> random.Random:
        return random.Random(f"{self.role}:{self.seed}:{purpose}")

    def penalty_jitter(self, half_width_ms: float) -> float:
        """Client coalesced-crypto penalty jitter, uniform in
        ``[-half_width, +half_width]`` (drawn once per connection)."""
        return self._stream(PURPOSE_PENALTY_JITTER).uniform(
            -half_width_ms, half_width_ms
        )

    def crypto_jitter(self, max_ms: float) -> float:
        """Server crypto/signature processing jitter, uniform in
        ``[0, max]`` (drawn once per connection)."""
        return self._stream(PURPOSE_CRYPTO_JITTER).uniform(0.0, max_ms)

    def second_flight_roll(self) -> float:
        """Variant-selection roll for the second client flight."""
        return self._stream(PURPOSE_SECOND_FLIGHT).random()

    def misinit_rng(self) -> random.Random:
        """The rng handed to :class:`~repro.quic.recovery.RttEstimator`
        for the go-x-net srtt mis-initialization roll."""
        return self._stream(PURPOSE_MISINIT)


class RngDraws(BehaviorDraws):
    """Draws sharing one caller-supplied rng stream.

    Used when an endpoint is constructed directly with just an ``rng``
    — ``table3_server_ack_delay.aggregate`` does, so
    ``tests/golden/smoke/table3.json`` pins this draw order and these
    values — and by unit tests and ad-hoc harnesses.
    """

    __slots__ = ("_rng",)

    def __init__(self, rng: Optional[random.Random] = None):
        super().__init__("legacy", 0)
        self._rng = rng if rng is not None else random.Random(0)

    def penalty_jitter(self, half_width_ms: float) -> float:
        return self._rng.uniform(-half_width_ms, half_width_ms)

    def crypto_jitter(self, max_ms: float) -> float:
        return self._rng.uniform(0.0, max_ms)

    def second_flight_roll(self) -> float:
        return self._rng.random()

    def misinit_rng(self) -> random.Random:
        return self._rng
