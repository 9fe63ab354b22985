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
from typing import Any, Callable, Iterable, Iterator, List, Optional, Union


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

    ``capture`` is ``True`` (every link that offers a record), ``False``
    (none) or the names of the links to capture. The links stay wired
    identically either way; an uncaptured link skips the per-datagram
    record allocation. What was not captured cannot be read: asking for
    an uncaptured link — or for every link of a tracer that captured
    only some — raises instead of answering with an empty list, which
    a reader would aggregate into a wrong number.
    """

    def __init__(self, capture: Union[bool, Iterable[str]] = True) -> None:
        if capture is not True and capture is not False:
            capture = frozenset(capture) or False
        self.capture = capture
        self._records: List[TraceRecord] = []

    def captures(self, link: str) -> bool:
        capture = self.capture
        return capture is True or (capture is not False and link in capture)

    def record(
        self,
        time_ms: float,
        link: str,
        index: int,
        size: int,
        dropped: bool,
        payload: Any = None,
    ) -> None:
        if self.capture is not True and not self.captures(link):
            return
        self._records.append(
            TraceRecord(
                time_ms=time_ms, link=link, index=index, size=size,
                dropped=dropped, payload=payload,
            )
        )

    def _captured(self, link: Optional[str]) -> List[TraceRecord]:
        """The record list, for a reader of ``link`` (``None``: of
        every link)."""
        if link is None:
            if self.capture is False:
                raise ValueError("the capture was not retained")
            if self.capture is not True:
                only = ", ".join(sorted(self.capture))
                raise ValueError(f"only the {only} capture was retained")
        elif not self.captures(link):
            raise ValueError(f"the {link} capture was not retained")
        return self._records

    @property
    def records(self) -> List[TraceRecord]:
        return self._captured(None)

    def __len__(self) -> int:
        return len(self._captured(None))

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._captured(None))

    def filter(
        self,
        link: Optional[str] = None,
        dropped: Optional[bool] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> List[TraceRecord]:
        """Select records by link name, drop status, and/or predicate."""
        out = []
        for rec in self._captured(link):
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
            for rec in self._captured(link)
            if rec.link == link and (include_dropped or not rec.dropped)
        )

    def dump(self) -> str:
        """Render the whole trace as text (one record per line)."""
        return "\n".join(rec.describe() for rec in self._captured(None))

    def clear(self) -> None:
        self._records.clear()
