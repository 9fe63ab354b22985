"""Datagram loss patterns.

The paper deliberately avoids stochastic loss: "Our emulation instead
simulates particular datagram losses to better understand root causes"
(§3). :class:`IndexedLoss` implements exactly that — dropping the n-th
datagram sent by one endpoint — while :class:`RandomLoss` is provided
for the related-work-style stochastic scenarios.

Indices are **1-based** to match the paper's wording ("loss of packets
2 and 3 (IACK) and packet 2 (WFC) sent by the server").
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence, Set


class LossPattern:
    """Decides whether the ``index``-th datagram on a link is dropped.

    ``index`` counts datagrams *offered* to the link (1-based),
    including ones that end up dropped.
    """

    #: True when :meth:`should_drop` never changes the pattern: runs
    #: may then share one instance instead of a fresh copy each.
    stateless = False

    def should_drop(self, index: int, size: int) -> bool:
        raise NotImplementedError

    def reset(self) -> None:
        """Reset internal state between simulation runs (if any)."""


class NoLoss(LossPattern):
    """A lossless link."""

    stateless = True

    def should_drop(self, index: int, size: int) -> bool:
        return False

    def __repr__(self) -> str:
        return "NoLoss()"


class IndexedLoss(LossPattern):
    """Drop exactly the datagrams whose 1-based index is listed.

    This is the paper's primary loss model; e.g. the Figure 6 scenario
    uses ``IndexedLoss({2, 3})`` on the server→client link in IACK mode
    and ``IndexedLoss({2})`` in WFC mode, so that *equal information* is
    lost despite the extra standalone ACK datagram.
    """

    stateless = True

    def __init__(self, indices: Iterable[int]):
        self.indices: Set[int] = set(indices)
        if any(i < 1 for i in self.indices):
            raise ValueError("loss indices are 1-based and must be >= 1")

    def should_drop(self, index: int, size: int) -> bool:
        return index in self.indices

    def __repr__(self) -> str:
        return f"IndexedLoss({sorted(self.indices)})"


class RandomLoss(LossPattern):
    """Drop each datagram independently with probability ``rate``.

    Used only by the stochastic-loss extension experiments; the paper's
    main results rely on :class:`IndexedLoss`.
    """

    def __init__(self, rate: float, seed: int = 0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.seed = seed
        self._rng = random.Random(seed)

    def should_drop(self, index: int, size: int) -> bool:
        return self._rng.random() < self.rate

    def reset(self) -> None:
        self._rng = random.Random(self.seed)

    def __repr__(self) -> str:
        return f"RandomLoss(rate={self.rate}, seed={self.seed})"


class GilbertElliottLoss(LossPattern):
    """Two-state Markov (Gilbert-Elliott) burst loss.

    The link alternates between a *good* state (no loss) and a *bad*
    state where each datagram is delivered only with probability
    ``h``. ``p`` is the per-datagram good→bad transition probability,
    ``r`` the bad→good recovery probability; the expected burst length
    is ``1/r`` datagrams. The classic Gilbert model is ``h=0`` (every
    bad-state datagram is dropped).

    The state walk is driven by a private :class:`random.Random`
    seeded with ``seed``; :meth:`reset` restores the initial (good)
    state and re-seeds, so repetitions of one scenario see identical
    loss sequences.
    """

    def __init__(self, p: float, r: float, h: float = 0.0, seed: int = 0):
        for label, value in (("p", p), ("r", r), ("h", h)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"Gilbert-Elliott {label} must be in [0, 1], got {value}"
                )
        self.p = p
        self.r = r
        self.h = h
        self.seed = seed
        self._rng = random.Random(seed)
        self._bad = False

    def should_drop(self, index: int, size: int) -> bool:
        rng = self._rng
        drop = self._bad and rng.random() >= self.h
        # Transition after the verdict: the state seen by datagram n+1
        # is a function of the state at datagram n only.
        if self._bad:
            if rng.random() < self.r:
                self._bad = False
        elif rng.random() < self.p:
            self._bad = True
        return drop

    def reset(self) -> None:
        self._rng = random.Random(self.seed)
        self._bad = False

    def __repr__(self) -> str:
        return (
            f"GilbertElliottLoss(p={self.p}, r={self.r}, "
            f"h={self.h}, seed={self.seed})"
        )


class CompositeLoss(LossPattern):
    """Drop when *any* member pattern drops."""

    def __init__(self, patterns: Sequence[LossPattern]):
        self.patterns = list(patterns)

    def should_drop(self, index: int, size: int) -> bool:
        return any(p.should_drop(index, size) for p in self.patterns)

    def reset(self) -> None:
        for pattern in self.patterns:
            pattern.reset()

    def __repr__(self) -> str:
        return f"CompositeLoss({self.patterns!r})"


def burst_loss(start: int, length: int) -> IndexedLoss:
    """Convenience: drop ``length`` consecutive datagrams from ``start``."""
    if length < 0:
        raise ValueError("burst length must be >= 0")
    return IndexedLoss(range(start, start + length))


def parse_loss_spec(spec: Optional[str]) -> LossPattern:
    """Parse a compact textual loss spec.

    ``""`` or ``None`` → :class:`NoLoss`; ``"2,3"`` → indexed loss;
    ``"p0.01"`` → 1 % random loss; ``"ge:p,r,h"`` (``h`` optional,
    default 0) → Gilbert-Elliott burst loss. Used by the example CLIs.
    """
    if not spec:
        return NoLoss()
    if spec.startswith("ge:"):
        parts = [part for part in spec[3:].split(",") if part]
        if len(parts) not in (2, 3):
            raise ValueError(
                f"Gilbert-Elliott spec must be 'ge:p,r' or 'ge:p,r,h', got {spec!r}"
            )
        p, r = float(parts[0]), float(parts[1])
        h = float(parts[2]) if len(parts) == 3 else 0.0
        return GilbertElliottLoss(p, r, h)
    if spec.startswith("p"):
        return RandomLoss(float(spec[1:]))
    return IndexedLoss(int(part) for part in spec.split(",") if part)
