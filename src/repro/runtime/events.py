"""Streaming run events emitted by the execution runtime.

Long suite runs — especially distributed ones — were observable only
through stdout prints; embedding callers had no programmatic signal
for "the fleet assembled", "a worker died", or "half the cells are
done". Every component of the runtime now reports progress as typed
:class:`RunEvent` objects pushed into an optional *event sink* (any
``Callable[[RunEvent], None]``):

* :class:`~repro.runtime.suite.SuiteRunner` emits
  :class:`SuitePlanned`, :class:`ExperimentCompleted`, and
  :class:`SuiteCompleted`;
* execution backends emit :class:`CellCompleted` per cell when they
  run in-process and :class:`ChunkDispatched` /
  :class:`ChunkCompleted` otherwise, and the distributed
  :class:`~repro.runtime.distributed.SocketBackend` additionally emits
  :class:`WorkerJoined` / :class:`WorkerLost` / :class:`WorkerDrained`
  for fleet membership.

Failure-path ordering guarantees (asserted by the event-ordering
tests): a :class:`WorkerLost` event carries the number of chunks its
loss requeued and is emitted *before* the requeued chunk's
:class:`ChunkDispatched`; duplicate RESULT frames (a presumed-lost
worker's late echo) never emit a second :class:`ChunkCompleted` for
the same chunk.

Sinks run on whatever thread produced the event (including backend
reader threads), so they must be quick and thread-safe; exceptions a
sink raises never propagate out of :func:`emit` — observability must
never corrupt a run — but they are not silent either: the first
failure of each sink is logged at warning level with the sink's name
(further failures of the same sink are suppressed to keep a
misbehaving observer from flooding the log once per cell).
``repro.api`` layers the public callback/iterator channel on top of
these types.

Events also have a JSON wire form (:func:`event_to_dict` /
:func:`event_from_dict`) used by the ``repro serve`` daemon's
``events`` relay: every event type round-trips field for field, and a
payload whose ``kind`` this build does not know decodes to ``None`` —
clients skip unknown future event kinds instead of dying on them.
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Optional, Tuple, Type

__all__ = [
    "CellCompleted",
    "ChunkCompleted",
    "ChunkDispatched",
    "EventSink",
    "ExperimentCompleted",
    "RunEvent",
    "ScanCompleted",
    "ShardCompleted",
    "ShardDispatched",
    "SuiteCompleted",
    "SuitePlanned",
    "WorkerDrained",
    "WorkerJoined",
    "WorkerLost",
    "emit",
    "event_from_dict",
    "event_to_dict",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunEvent:
    """Base class of every runtime progress event."""

    #: Stable machine-readable event name (also the CLI line prefix).
    kind = "event"

    def describe(self) -> str:
        """One observability line: ``kind field=value ...``."""
        parts = [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]
        return " ".join([self.kind, *parts]) if parts else self.kind


@dataclass(frozen=True)
class SuitePlanned(RunEvent):
    """The suite plan is final; execution starts next."""

    kind = "suite_planned"

    experiments: Tuple[str, ...]
    total_cells: int
    unique_cells: int
    shared_cells: int
    artifact_level: str


@dataclass(frozen=True)
class ChunkDispatched(RunEvent):
    """A chunk of cells left for an execution slot (pool worker or
    remote host)."""

    kind = "chunk_dispatched"

    chunk_id: int
    cells: int
    #: Which slot took it, e.g. ``"local-pool"`` or ``"worker-3"``.
    where: str


@dataclass(frozen=True)
class ChunkCompleted(RunEvent):
    """A dispatched chunk returned its results."""

    kind = "chunk_completed"

    chunk_id: int
    cells: int
    where: str


@dataclass(frozen=True)
class CellCompleted(RunEvent):
    """One cell finished on the serial in-process path."""

    kind = "cell_completed"

    completed: int
    total: int


@dataclass(frozen=True)
class WorkerJoined(RunEvent):
    """A remote worker passed authentication and registered."""

    kind = "worker_joined"

    worker_id: int
    host: str
    pid: int


@dataclass(frozen=True)
class WorkerLost(RunEvent):
    """A remote worker was dropped (socket death, heartbeat timeout,
    or protocol violation). ``requeued_chunks`` counts the in-flight
    chunks its loss sent back to the queue — 0 when it held none, or
    when its chunk was already recorded; always emitted before the
    requeued chunk's :class:`ChunkDispatched`."""

    kind = "worker_lost"

    worker_id: int
    requeued_chunks: int


@dataclass(frozen=True)
class WorkerDrained(RunEvent):
    """A remote worker departed gracefully via the DRAIN handshake
    (nothing was lost and nothing requeued — its in-flight chunk, if
    any, was delivered before it left)."""

    kind = "worker_drained"

    worker_id: int


@dataclass(frozen=True)
class ShardDispatched(RunEvent):
    """A streaming-scan shard (one rank range of targets) entered the
    in-flight window and was handed to the execution backend."""

    kind = "shard_dispatched"

    shard_index: int
    targets: int
    #: Total shards in the scan (for progress displays).
    total_shards: int


@dataclass(frozen=True)
class ShardCompleted(RunEvent):
    """A shard's sketch came back and was merged into the scan state.

    ``source`` records how the outcome was produced: ``"executed"``
    (probed on the fleet) or ``"disk_cache"`` (served unchanged from
    the durable cache — a rescan's, or a killed scan's started again).
    """

    kind = "shard_completed"

    shard_index: int
    targets: int
    completed_shards: int
    total_shards: int
    source: str


@dataclass(frozen=True)
class ScanCompleted(RunEvent):
    """The streaming scan finished; the merged sketch summary is being
    returned."""

    kind = "scan_completed"

    targets: int
    probes: int
    shards: int
    executed_shards: int
    cached_shards: int


@dataclass(frozen=True)
class ExperimentCompleted(RunEvent):
    """One experiment's aggregator produced its result."""

    kind = "experiment_completed"

    experiment_id: str
    rows: int


@dataclass(frozen=True)
class SuiteCompleted(RunEvent):
    """The whole suite finished; the report is being returned."""

    kind = "suite_completed"

    executed_cells: int


#: Anything that consumes run events.
EventSink = Callable[[RunEvent], None]

#: Sinks whose first failure was already logged. Weak where possible so
#: a retired sink does not pin its closure; unweakrefable sinks fall
#: back to logging every failure (still never raising).
_warned_sinks: "weakref.WeakSet" = weakref.WeakSet()


def emit(sink: Optional[EventSink], event: RunEvent) -> None:
    """Deliver ``event`` to ``sink`` if one is attached.

    Sink exceptions never propagate — events fire from worker-serving
    threads and between chunk dispatches, where a raising observer
    would kill a run that is otherwise succeeding — but the *first*
    failure of each sink is logged at warning level with the sink's
    name, so a broken observer is diagnosable instead of silently
    dropping every event.
    """
    if sink is None:
        return
    try:
        sink(event)
    except Exception:
        try:
            already_warned = sink in _warned_sinks
            if not already_warned:
                _warned_sinks.add(sink)
        except TypeError:  # unweakrefable sink: warn every time
            already_warned = False
        if not already_warned:
            name = (
                getattr(sink, "__qualname__", None)
                or getattr(sink, "__name__", None)
                or repr(sink)
            )
            logger.warning(
                "event sink %s raised on %s; the run continues and further "
                "errors from this sink are suppressed",
                name,
                event.kind,
                exc_info=True,
            )


# -- JSON wire form -----------------------------------------------------

#: Every event type this build knows, by wire ``kind``. The daemon's
#: ``events`` relay ships these as JSON; a decoder seeing a kind not in
#: this table skips the event rather than failing (forward compat).
EVENT_TYPES: Dict[str, Type[RunEvent]] = {
    cls.kind: cls
    for cls in (
        SuitePlanned,
        ChunkDispatched,
        ChunkCompleted,
        CellCompleted,
        WorkerJoined,
        WorkerLost,
        WorkerDrained,
        ShardDispatched,
        ShardCompleted,
        ScanCompleted,
        ExperimentCompleted,
        SuiteCompleted,
    )
}


def event_to_dict(event: RunEvent) -> Dict[str, Any]:
    """One event as a JSON-safe dict: ``{"kind": ..., <fields>}``.

    Tuples become lists (JSON has no tuple); :func:`event_from_dict`
    reverses that.
    """
    payload: Dict[str, Any] = {"kind": event.kind}
    for field_info in fields(event):
        value = getattr(event, field_info.name)
        if isinstance(value, tuple):
            value = list(value)
        payload[field_info.name] = value
    return payload


def event_from_dict(payload: Dict[str, Any]) -> Optional[RunEvent]:
    """Decode one wire event, or ``None`` for unknown/unusable kinds.

    ``None`` (not an exception) is the forward-compatibility contract:
    a client older than its daemon must skip event kinds it does not
    know, never die on them. Extra fields in a known kind are ignored
    for the same reason; a known kind *missing* a required field also
    decodes to ``None`` (a half-spoken event is as undecodable as an
    unknown one).
    """
    if not isinstance(payload, dict):
        return None
    cls = EVENT_TYPES.get(payload.get("kind"))
    if cls is None:
        return None
    kwargs: Dict[str, Any] = {}
    for field_info in fields(cls):
        name = field_info.name
        if name not in payload:
            return None
        value = payload[name]
        if name == "experiments" and isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError:
        return None
