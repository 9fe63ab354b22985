"""Stream state (RFC 9000 §2-3): ordered byte delivery per stream.

Only what HTTP over QUIC needs: per-stream send buffers with
retransmission bookkeeping on the sender and reassembly with FIN
detection on the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class SendStream:
    """Outgoing stream: a total length, a FIN, and sent/acked ranges."""

    stream_id: int
    total_length: int = 0
    fin_queued: bool = False
    label: str = ""
    _next_offset: int = 0
    _acked: List[Tuple[int, int]] = field(default_factory=list)
    fin_acked: bool = False

    def write(self, length: int) -> None:
        """Append ``length`` bytes of (abstract) payload."""
        if length < 0:
            raise ValueError("cannot write negative bytes")
        if self.fin_queued:
            raise RuntimeError("stream already finished")
        self.total_length += length

    def finish(self) -> None:
        self.fin_queued = True

    def next_chunk(self, max_length: int) -> Optional[Tuple[int, int, bool]]:
        """Next unsent ``(offset, length, fin)`` chunk, or ``None``."""
        if self._next_offset >= self.total_length:
            if self.fin_queued and self._next_offset == self.total_length:
                # Pure-FIN frame only needed if nothing was sent or FIN
                # wasn't attached; callers attach FIN to last chunk.
                return None
            return None
        length = min(max_length, self.total_length - self._next_offset)
        offset = self._next_offset
        self._next_offset += length
        fin = self.fin_queued and self._next_offset == self.total_length
        return (offset, length, fin)

    @property
    def bytes_unsent(self) -> int:
        return self.total_length - self._next_offset

    def mark_acked(self, offset: int, length: int, fin: bool) -> None:
        if fin:
            self.fin_acked = True
        if length <= 0:
            return
        new = (offset, offset + length)
        merged: List[Tuple[int, int]] = []
        for rng in self._acked:
            if rng[1] < new[0] or rng[0] > new[1]:
                merged.append(rng)
            else:
                new = (min(new[0], rng[0]), max(new[1], rng[1]))
        merged.append(new)
        merged.sort()
        self._acked = merged

    def unacked_sent_ranges(self) -> List[Tuple[int, int]]:
        """Sent-but-unacked ranges (candidates for retransmission)."""
        out: List[Tuple[int, int]] = []
        cursor = 0
        for start, end in self._acked:
            if cursor < min(start, self._next_offset):
                out.append((cursor, min(start, self._next_offset)))
            cursor = max(cursor, end)
        if cursor < self._next_offset:
            out.append((cursor, self._next_offset))
        return out

    @property
    def all_acked(self) -> bool:
        if self.fin_queued and not self.fin_acked:
            return False
        return not self.unacked_sent_ranges() and self.bytes_unsent == 0


@dataclass
class RecvStream:
    """Incoming stream: reassembled ranges plus FIN accounting."""

    stream_id: int
    _ranges: List[Tuple[int, int]] = field(default_factory=list)
    final_size: Optional[int] = None
    #: Time the first payload byte arrived (TTFB bookkeeping).
    first_byte_time_ms: Optional[float] = None
    #: Duplicate payload bytes received (spurious retransmissions seen
    #: from the receiver side).
    duplicate_bytes: int = 0

    def receive(self, offset: int, length: int, fin: bool, now_ms: float) -> None:
        if fin:
            self.final_size = offset + length
        if length <= 0:
            return
        if self.first_byte_time_ms is None:
            self.first_byte_time_ms = now_ms
        ranges = self._ranges
        if len(ranges) == 1 and ranges[0][1] == offset:
            # In-order arrival: extend the one range, nothing overlaps.
            ranges[0] = (ranges[0][0], offset + length)
            return
        new = (offset, offset + length)
        overlap = 0
        for start, end in self._ranges:
            lo = max(start, new[0])
            hi = min(end, new[1])
            if hi > lo:
                overlap += hi - lo
        self.duplicate_bytes += overlap
        merged: List[Tuple[int, int]] = []
        for rng in self._ranges:
            if rng[1] < new[0] or rng[0] > new[1]:
                merged.append(rng)
            else:
                new = (min(new[0], rng[0]), max(new[1], rng[1]))
        merged.append(new)
        merged.sort()
        self._ranges = merged

    def contiguous_length(self) -> int:
        if not self._ranges or self._ranges[0][0] != 0:
            return 0
        return self._ranges[0][1]

    @property
    def complete(self) -> bool:
        return (
            self.final_size is not None
            and self.contiguous_length() >= self.final_size
        )


class StreamSet:
    """All streams of one endpoint."""

    def __init__(self) -> None:
        self.send: Dict[int, SendStream] = {}
        self.recv: Dict[int, RecvStream] = {}

    def get_send(self, stream_id: int) -> SendStream:
        if stream_id not in self.send:
            self.send[stream_id] = SendStream(stream_id=stream_id)
        return self.send[stream_id]

    def get_recv(self, stream_id: int) -> RecvStream:
        if stream_id not in self.recv:
            self.recv[stream_id] = RecvStream(stream_id=stream_id)
        return self.recv[stream_id]
