"""Qlog event model.

A small, typed subset of the qlog main schema: ``transport``-category
packet events and ``recovery``-category metric updates — the event
kinds the paper's analysis pipeline consumes ("we calculate PTOs based
on sent and received packets according to the standard", §3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


class EventCategory(enum.Enum):
    TRANSPORT = "transport"
    RECOVERY = "recovery"
    HTTP = "http"


@dataclass(frozen=True)
class QlogEvent:
    """Base event: a timestamp plus a name like ``transport:packet_sent``."""

    time_ms: float
    category: EventCategory
    name: str
    data: Dict[str, Any] = field(default_factory=dict, compare=False)

    @property
    def qualified_name(self) -> str:
        return f"{self.category.value}:{self.name}"


@dataclass(frozen=True)
class PacketEvent(QlogEvent):
    """``transport:packet_sent`` / ``transport:packet_received``."""

    packet_type: str = ""
    packet_number: int = -1
    space: str = ""
    size: int = 0
    ack_eliciting: bool = False
    frames: Tuple[str, ...] = ()
    #: Packet numbers newly acknowledged by ACK frames in this packet
    #: (receive direction only) — the basis of "packets with new ACKs".
    newly_acked: Tuple[int, ...] = ()


@dataclass(frozen=True)
class MetricsUpdated(QlogEvent):
    """``recovery:metrics_updated``.

    ``rtt_variance`` may be ``None`` — "neqo, mvfst and picoquic do
    not log RTT variance" (Appendix E); the paper then recalculates it
    from packet events, which :func:`repro.core.pto_calc` mirrors.
    """

    smoothed_rtt_ms: Optional[float] = None
    rtt_variance_ms: Optional[float] = None
    latest_rtt_ms: Optional[float] = None
    min_rtt_ms: Optional[float] = None
    pto_count: int = 0
