"""Unidirectional network link with delay, bandwidth, and loss.

Models the testbed links of the paper: symmetric one-way delays between
0.5 ms and 150 ms and a bandwidth of 10 Mbit/s (§3). Serialization is
modelled as a single-server FIFO queue: a datagram starts transmitting
when the previous one finished, takes ``size * 8 / bandwidth`` to put on
the wire, then experiences the propagation delay.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import EventLoop
from repro.sim.loss import LossPattern, NoLoss
from repro.sim.trace import Tracer

#: Bandwidth used by all testbed emulations in the paper (§3).
DEFAULT_BANDWIDTH_BPS = 10_000_000.0


class Link:
    """A unidirectional link delivering opaque payloads of known size.

    Parameters
    ----------
    loop:
        The event loop providing time and scheduling.
    one_way_delay_ms:
        Propagation delay in milliseconds.
    bandwidth_bps:
        Serialization bandwidth in bits per second; ``None`` disables
        serialization delay entirely.
    loss:
        Loss pattern applied to the 1-based index of datagrams offered
        to this link.
    name:
        Label used in traces, e.g. ``"server->client"``.
    """

    def __init__(
        self,
        loop: EventLoop,
        one_way_delay_ms: float,
        bandwidth_bps: Optional[float] = DEFAULT_BANDWIDTH_BPS,
        loss: Optional[LossPattern] = None,
        name: str = "link",
        tracer: Optional[Tracer] = None,
    ):
        if one_way_delay_ms < 0:
            raise ValueError(f"negative delay: {one_way_delay_ms}")
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth_bps}")
        self.loop = loop
        self.one_way_delay_ms = one_way_delay_ms
        self.bandwidth_bps = bandwidth_bps
        self.loss = loss if loss is not None else NoLoss()
        self.name = name
        self.tracer = tracer
        # Whether the tracer captures this link, resolved once, so an
        # uncaptured link pays nothing per datagram (``Tracer.captures``
        # spelled out: a stats cell's call count is a CI gate).
        capture = tracer.capture if tracer is not None else False
        self._captured = capture is True or (capture is not False and name in capture)
        self._next_free_ms = 0.0
        self._offered = 0
        self._dropped = 0

    @property
    def offered(self) -> int:
        """Datagrams offered to the link so far."""
        return self._offered

    @property
    def dropped(self) -> int:
        """Datagrams dropped by the loss pattern so far."""
        return self._dropped

    def send(self, payload, size: int, deliver: Callable[[object], None]) -> bool:
        """Offer a datagram to the link.

        ``deliver(payload)`` is scheduled after serialization and
        propagation unless the loss pattern drops this index. Returns
        ``True`` if the datagram will be delivered.
        """
        if size <= 0:
            raise ValueError(f"datagram size must be positive: {size}")
        self._offered += 1
        index = self._offered
        loop = self.loop
        now = loop.now
        loss = self.loss
        drop = type(loss) is not NoLoss and loss.should_drop(index, size)
        if self._captured:
            self.tracer.record(
                time_ms=now, link=self.name, index=index, size=size,
                dropped=drop, payload=payload,
            )
        # Transmission starts when the previous datagram finished and
        # takes size * 8 / bandwidth to put on the wire; a dropped
        # datagram still occupies that wire time.
        done = self._next_free_ms if self._next_free_ms > now else now
        if self.bandwidth_bps is not None:
            done += size * 8.0 / self.bandwidth_bps * 1000.0
        self._next_free_ms = done
        if drop:
            self._dropped += 1
            return False
        loop.post_at(done + self.one_way_delay_ms, deliver, payload)
        return True

    def reset(self) -> None:
        """Reset counters and loss state (between repetitions)."""
        self._next_free_ms = 0.0
        self._offered = 0
        self._dropped = 0
        self.loss.reset()
