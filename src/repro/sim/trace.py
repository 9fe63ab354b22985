"""Packet-capture-style traces of simulated links.

The paper relies on packet captures next to qlog ("QIR captures packets
and collects Qlog information", §3) and cross-checks one against the
other. :class:`Tracer` plays the role of the capture: every datagram
offered to a traced link is recorded with its time, size, index, and
whether the loss pattern dropped it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Any, Callable, Iterator, List, Optional


def precomputed_state(cls):
    """Class decorator for a ``@dataclass(frozen=True, slots=True)``
    record that is retained (and so pickled) by the thousand.

    Python 3.11 generates ``__getstate__``/``__setstate__`` for such a
    class that call ``dataclasses.fields()`` per instance; these emit
    and accept the same state — the field values as a list, in field
    order — from names resolved once, so pickles written before and
    after load under either.
    """
    names = tuple(f.name for f in fields(cls))
    if len(names) > 1:
        values = attrgetter(*names)
        cls.__getstate__ = lambda self: list(values(self))
    else:
        cls.__getstate__ = lambda self: [getattr(self, name) for name in names]

    def __setstate__(self, state):
        for name, value in zip(names, state):
            object.__setattr__(self, name, value)

    cls.__setstate__ = __setstate__
    return cls


@precomputed_state
@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One datagram observed on a link."""

    time_ms: float
    link: str
    index: int
    size: int
    dropped: bool
    payload: Any = field(compare=False, default=None)

    def describe(self) -> str:
        """Human-readable one-line summary (used by example scripts)."""
        status = "DROP" if self.dropped else "ok"
        detail = ""
        if self.payload is not None and hasattr(self.payload, "describe"):
            detail = " " + self.payload.describe()
        return (
            f"{self.time_ms:9.3f}ms {self.link:<16} #{self.index:<3} "
            f"{self.size:>5}B {status}{detail}"
        )


class Tracer:
    """Collects :class:`TraceRecord` entries from any number of links.

    A tracer constructed with ``capture=False`` accepts records but
    stores nothing — the links stay wired identically while stat-only
    experiment runs skip the per-datagram record allocation.
    """

    def __init__(self, capture: bool = True) -> None:
        self.capture = capture
        self._records: List[TraceRecord] = []

    def record(
        self,
        time_ms: float,
        link: str,
        index: int,
        size: int,
        dropped: bool,
        payload: Any = None,
    ) -> None:
        if not self.capture:
            return
        self._records.append(
            TraceRecord(
                time_ms=time_ms, link=link, index=index, size=size,
                dropped=dropped, payload=payload,
            )
        )

    @property
    def records(self) -> List[TraceRecord]:
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def filter(
        self,
        link: Optional[str] = None,
        dropped: Optional[bool] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> List[TraceRecord]:
        """Select records by link name, drop status, and/or predicate."""
        out = []
        for rec in self._records:
            if link is not None and rec.link != link:
                continue
            if dropped is not None and rec.dropped != dropped:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def bytes_on(self, link: str, include_dropped: bool = False) -> int:
        """Total bytes offered to (or delivered on) a link."""
        return sum(
            rec.size
            for rec in self._records
            if rec.link == link and (include_dropped or not rec.dropped)
        )

    def dump(self) -> str:
        """Render the whole trace as text (one record per line)."""
        return "\n".join(rec.describe() for rec in self._records)

    def clear(self) -> None:
        self._records.clear()
