"""Qlog writers with per-implementation exposure policies.

Appendix E: "timestamps are provided with different resolutions, i.e.,
µs, ms, and s, and neqo, mvfst and picoquic do not log RTT variance
... aioquic, go-x-net, mvfst, and quiche expose the maximum of PTO
updates available, while neqo, ngtcp2, picoquic, and quic-go rely on a
smaller fraction of the samples."
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.qlog.events import EventCategory, MetricsUpdated, PacketEvent, QlogEvent

_RESOLUTION_QUANTUM_MS = {"us": 0.001, "ms": 1.0, "s": 1000.0}


@dataclass(frozen=True)
class ExposurePolicy:
    """How much of the connection's internals reach the qlog."""

    #: Share of recovery metric updates that are actually logged.
    metrics_exposure: float = 1.0
    #: Whether ``rtt_variance`` is included in metric events.
    logs_rtt_variance: bool = True
    #: Timestamp resolution: "us", "ms", or "s".
    timestamp_resolution: str = "us"

    def __post_init__(self) -> None:
        if not 0.0 <= self.metrics_exposure <= 1.0:
            raise ValueError("metrics_exposure must be in [0, 1]")
        if self.timestamp_resolution not in _RESOLUTION_QUANTUM_MS:
            raise ValueError(
                f"unknown timestamp resolution {self.timestamp_resolution!r}"
            )

    def quantize(self, time_ms: float) -> float:
        quantum = _RESOLUTION_QUANTUM_MS[self.timestamp_resolution]
        return round(time_ms / quantum) * quantum


class QlogWriter:
    """Collects events for one endpoint ("vantage point" in qlog terms)."""

    def __init__(
        self,
        vantage_point: str,
        policy: Optional[ExposurePolicy] = None,
        rng: Optional[random.Random] = None,
        record_events: bool = True,
    ):
        self.vantage_point = vantage_point
        self.policy = policy if policy is not None else ExposurePolicy()
        self._rng = rng if rng is not None else random.Random(0)
        #: When False the writer keeps drawing its exposure-policy rng
        #: samples (so connection behavior stays bit-identical with or
        #: without qlog retention) but stores no events, and reading
        #: :attr:`events` raises: an unrecorded qlog is absent, not empty.
        self.record_events = record_events
        self._events: List[QlogEvent] = []
        self._suppressed_metrics = 0
        self._last_metrics_key: Optional[tuple] = None

    @property
    def events(self) -> List[QlogEvent]:
        if not self.record_events:
            raise ValueError(f"the {self.vantage_point} qlog was not retained")
        return self._events

    def packet(
        self,
        time_ms: float,
        name: str,
        data: Dict[str, Any],
        packet_type: str,
        packet_number: int,
        space: str,
        size: int,
        ack_eliciting: bool,
        frames: Tuple[str, ...],
        newly_acked: Tuple[int, ...] = (),
    ) -> None:
        """Log a ``transport:packet_sent`` / ``packet_received`` event
        at the policy's timestamp resolution. Endpoints check
        :attr:`record_events` before building the arguments, which cost
        more than the event."""
        if not self.record_events:
            return
        self._events.append(
            PacketEvent(
                self.policy.quantize(time_ms), EventCategory.TRANSPORT, name, data,
                packet_type, packet_number, space, size, ack_eliciting, frames, newly_acked,
            )
        )

    def log_packet(self, event: PacketEvent) -> None:
        """:meth:`packet` for an event built elsewhere, re-stamped at
        the policy's resolution."""
        if not self.record_events:
            return
        quantized = self.policy.quantize(event.time_ms)
        if quantized != event.time_ms:
            event = replace(event, time_ms=quantized)
        self._events.append(event)

    def metrics_updated(
        self,
        time_ms: float,
        smoothed_rtt_ms: Optional[float],
        rtt_variance_ms: Optional[float],
        latest_rtt_ms: Optional[float],
        min_rtt_ms: Optional[float],
        pto_count: int = 0,
    ) -> None:
        """Log a recovery:metrics_updated event, subject to policy.

        Consecutive duplicates are collapsed the way the paper's
        post-processing does ("we remove consecutive duplicates",
        Appendix E) — quantized values that repeat are dropped.

        The exposure draw happens before the ``record_events`` check:
        the rng is shared with the endpoint, so a non-recording writer
        must consume exactly the same samples as a recording one. The
        event itself is built only when it is kept.
        """
        if self._rng.random() > self.policy.metrics_exposure:
            self._suppressed_metrics += 1
            return
        if not self.record_events:
            return
        if not self.policy.logs_rtt_variance:
            rtt_variance_ms = None
        key = (smoothed_rtt_ms, rtt_variance_ms)
        if key == self._last_metrics_key:
            return
        self._last_metrics_key = key
        self._events.append(
            MetricsUpdated(
                self.policy.quantize(time_ms), EventCategory.RECOVERY, "metrics_updated",
                {}, smoothed_rtt_ms, rtt_variance_ms, latest_rtt_ms, min_rtt_ms, pto_count,
            )
        )

    def log_metrics(self, event: MetricsUpdated) -> None:
        """:meth:`metrics_updated` with the values of a built event."""
        self.metrics_updated(
            event.time_ms, event.smoothed_rtt_ms, event.rtt_variance_ms,
            event.latest_rtt_ms, event.min_rtt_ms, event.pto_count,
        )

    @property
    def suppressed_metrics(self) -> int:
        return self._suppressed_metrics

    def of_type(self, qualified_name: str) -> List[QlogEvent]:
        return [e for e in self.events if e.qualified_name == qualified_name]

    def to_json(self) -> str:
        """Serialize in a qlog-like JSON shape."""
        return json.dumps(
            {
                "qlog_version": "0.4",
                "title": self.vantage_point,
                "traces": [
                    {
                        "vantage_point": {"name": self.vantage_point},
                        "events": [e.to_dict() for e in self.events],
                    }
                ],
            }
        )
