"""Run artifacts: how far they travel (levels), what they hold (sources).

The seed pipeline kept everything a run produced — live
``ClientConnection``/``ServerConnection`` objects, both qlog writers,
and the full packet trace — in every :class:`~repro.interop.runner
.RunResult`, even for experiments that only read two numbers out of
``ConnectionStats``. :class:`RunArtifacts` is the slim, picklable
replacement the parallel runtime ships across process boundaries.

Three levels:

``stats``
    Connection stats and the run duration only. Connection behavior is
    bit-identical to a full run (the qlog writers keep consuming their
    exposure rng draws without storing events).
``trace``
    Adds the retained sources (:class:`Source`) — everything the qlog/trace
    analyses consume.
``full``
    Adds the live endpoint objects via an embedded
    :class:`~repro.interop.runner.RunResult`. Live endpoints hold
    transport closures and cannot cross a process boundary, so this
    level is restricted to in-process execution.

Four sources, each retained or not on its own: the client's qlog, the
server's qlog, the client→server packet capture and the server→client
one. A run above ``stats`` retains all four unless told which
(:func:`execute_cell`'s ``sources``); the one caller that tells is an
:class:`ObservedCell`, which retains exactly what its observers'
specs declare they read, for as long as they read it. Retention never
changes behavior, only cost: a qlog event is a dataclass and a rendered
string per frame, a capture a record per datagram.

What an observer may touch: ``scenario``, ``seed``, the stats and
``duration_ms``; its declared sources, through
:meth:`RunArtifacts.read` (or ``tracer``, for both captures at once);
``result`` at ``full`` only. A source that was not retained is absent,
not empty — reading it raises, so an observer whose spec under-declares
fails its cell with an :class:`~repro.errors.ObserveError` naming the
source instead of aggregating zeros.

A cell every observer of which declares when its value is final (the
spec's ``answered``) also ends there: :class:`ObservedCell` hands the
predicates to the run as ``until``, and the event loop stops once each
has held for an item of its source. Its retained sources, stats and
``duration_ms`` are then a prefix of the whole run's — which is why a
halting cell's cache key names the predicates, and why the planner
halts no cell a stats-level experiment reads.
"""

from __future__ import annotations

import enum
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.errors import ObserveError
from repro.interop.runner import RunResult, Runner, Scenario
from repro.qlog.events import QlogEvent
from repro.quic.connection import ConnectionStats
from repro.runtime.cache import scenario_key
from repro.sim.trace import TraceRecord, Tracer


class ArtifactLevel(enum.Enum):
    """How much of a run's output is retained."""

    STATS = "stats"
    TRACE = "trace"
    FULL = "full"

    @classmethod
    def coerce(cls, value: Union["ArtifactLevel", str]) -> "ArtifactLevel":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"unknown artifact level {value!r}; expected one of "
                f"{[lvl.value for lvl in cls]}"
            ) from None

    def covers(self, required: "ArtifactLevel") -> bool:
        """Whether results at this level satisfy a ``required`` level
        (``full`` ⊇ ``trace`` ⊇ ``stats``)."""
        order = (ArtifactLevel.STATS, ArtifactLevel.TRACE, ArtifactLevel.FULL)
        return order.index(self) >= order.index(required)


class Source(enum.Enum):
    """One of the four things a run retains above ``stats``; the value
    is the name the simulator knows it by (a qlog's vantage point, a
    capture's link)."""

    CLIENT_QLOG = "client"
    SERVER_QLOG = "server"
    CLIENT_TO_SERVER = "client->server"
    SERVER_TO_CLIENT = "server->client"

    def describe(self) -> str:
        """``"client qlog"``, ``"client->server capture"``."""
        return f"{self.value} {'qlog' if self in _QLOGS else 'capture'}"


ALL_SOURCES: FrozenSet[Source] = frozenset(Source)
_QLOGS = frozenset({Source.CLIENT_QLOG, Source.SERVER_QLOG})
_CAPTURES = ALL_SOURCES - _QLOGS


@dataclass(slots=True)
class RunArtifacts:
    """Picklable artifacts of one emulated connection.

    ``scenario`` is ``None`` only transiently on the process-pool wire
    (the dispatching parent reattaches it on receipt).
    """

    scenario: Optional[Scenario]
    seed: int
    level: ArtifactLevel
    client_stats: ConnectionStats
    server_stats: ConnectionStats
    duration_ms: float
    #: Both links' capture in offer order; ``None`` unless both were
    #: retained (one link's records: ``read`` / ``tracer.filter``).
    trace_records: Optional[List[TraceRecord]] = None
    #: ``None`` when not retained.
    client_qlog_events: Optional[List[QlogEvent]] = None
    server_qlog_events: Optional[List[QlogEvent]] = None
    #: The live run: at :attr:`ArtifactLevel.FULL`, for its endpoints,
    #: and under partial retention, because only the run's own
    #: :class:`Tracer` knows which links it captured. In-process either
    #: way: it cannot be pickled.
    result: Optional[RunResult] = field(default=None, repr=False)

    # -- RunResult-compatible observables ------------------------------

    @property
    def ttfb_ms(self) -> Optional[float]:
        return self.client_stats.ttfb_relative_ms

    @property
    def response_ttfb_ms(self) -> Optional[float]:
        """First payload byte on the request stream (Appendix F)."""
        return self.client_stats.response_ttfb_relative_ms

    @property
    def completed(self) -> bool:
        return self.client_stats.completed

    @property
    def first_pto_ms(self) -> Optional[float]:
        return self.client_stats.first_pto_ms

    @property
    def tracer(self) -> Tracer:
        """The packet trace as a filterable :class:`Tracer` (levels
        ``trace`` and ``full`` only)."""
        if self.result is not None:
            return self.result.tracer
        if self.trace_records is None:
            raise ValueError(f"artifact level {self.level.value!r} retains no packet trace")
        tracer = Tracer()
        tracer._records = self.trace_records
        return tracer

    def read(self, source: Source) -> list:
        """One source of the run, in order: a qlog's events or the
        records of one link. Raises ``ValueError`` naming the source if
        the run did not retain it."""
        if source in _CAPTURES:
            return self.tracer.filter(link=source.value)
        events = (
            self.client_qlog_events if source is Source.CLIENT_QLOG else self.server_qlog_events
        )
        if events is None:
            raise ValueError(f"the {source.describe()} was not retained")
        return events


#: ``(source, predicate)``: true of one item of ``source`` (a qlog
#: event, a capture record) once an observer's value is final.
Answered = Tuple[Source, Callable[[Any], bool]]


def execute_cell(
    scenario: Scenario,
    seed: int,
    level: ArtifactLevel,
    runner: Optional[Runner] = None,
    sources: Optional[Iterable[Source]] = None,
    until: Iterable[Answered] = (),
) -> RunArtifacts:
    """Run one (scenario, seed) cell at the requested artifact level,
    retaining ``sources`` above ``stats`` (default: all four), and
    ending it once every ``until`` predicate has held (see
    ``Runner.run_once``).

    Cells are usually ``(Scenario, seed)`` pairs, but any object with
    an ``execute_task(seed=..., level=..., runner=...)`` method rides
    the same rails: the runtime (backends, scheduler, caches) stays
    agnostic about what a cell computes, which
    is how scan shards and :class:`ObservedCell` wrappers cross the
    fleet without a second protocol.
    """
    task = getattr(scenario, "execute_task", None)
    if callable(task):
        return task(seed=seed, level=level, runner=runner)
    if runner is None:
        runner = Runner()
    keep = level is not ArtifactLevel.STATS
    links = qlogs = False
    if keep:
        sources = ALL_SOURCES if sources is None else frozenset(sources)
        qlogs = {source.value for source in sources & _QLOGS}
        # True, not both names: only then does the Tracer answer for
        # the whole capture.
        links = _CAPTURES <= sources or {source.value for source in sources & _CAPTURES}
    result = runner.run_once(
        scenario,
        seed=seed,
        capture_trace=links,
        record_qlog=qlogs,
        until=[(source.value, predicate) for source, predicate in until],
    )
    artifacts = RunArtifacts(
        scenario=scenario,
        seed=result.seed,
        level=level,
        client_stats=result.client_stats,
        server_stats=result.server_stats,
        duration_ms=result.duration_ms,
    )
    if keep:
        if links is True:
            artifacts.trace_records = result.tracer.records
        if Source.CLIENT_QLOG in sources:
            artifacts.client_qlog_events = result.client_qlog.events
        if Source.SERVER_QLOG in sources:
            artifacts.server_qlog_events = result.server_qlog.events
        if level is ArtifactLevel.FULL or sources != ALL_SOURCES:
            artifacts.result = result
    return artifacts


#: One observer of a cell: ``(experiment id, its spec's observe)``.
Observer = Tuple[str, Callable[[RunArtifacts], Any]]


@dataclass(slots=True)
class ObservedArtifacts(RunArtifacts):
    """Stats-level artifacts plus ``{experiment id: observed value}`` —
    the only form in which an observed cell leaves its process."""

    observed: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ObservedCell:
    """A scenario some experiments read the trace of, as a task cell
    (see :func:`execute_cell`): simulated at ``level`` retaining
    ``sources``, observed on the spot, returned as
    :class:`ObservedArtifacts`. One instance serves all repetitions of
    its scenario, so chunk grouping and the runner's per-scenario
    scaffold keep seeing one object."""

    scenario: Scenario
    level: ArtifactLevel  #: how far the observers reach (``full``: live endpoints)
    observers: Tuple[Observer, ...]
    #: The union of what the observers' specs declare they read.
    sources: FrozenSet[Source] = ALL_SOURCES
    #: Each observer's ``answered`` when every one declares it (the
    #: cell halts once all have held), else empty (it runs whole).
    answered: Tuple[Answered, ...] = ()

    def task_key(self) -> Optional[Tuple[Any, ...]]:
        """Cache identity: the scenario's (``None`` stays ``None``), the
        level, which functions observe and, for a halting cell only,
        which predicates end it — its stats are a prefix, never to be
        served as a whole run's. Not ``sources``: they are a constant
        of the observers' specs and change no value."""
        skey = scenario_key(self.scenario)
        if skey is None:
            return None
        names = tuple((exp, _qualified(fn)) for exp, fn in self.observers)
        key = ("observed-cell", skey, self.level.value, names)
        if self.answered:
            key += (tuple(_qualified(predicate) for _, predicate in self.answered),)
        return key

    def execute_task(
        self, seed: int, level: ArtifactLevel, runner: Optional[Runner] = None
    ) -> ObservedArtifacts:
        cell = execute_cell(self.scenario, seed, self.level, runner, self.sources, self.answered)
        observed: Dict[str, Any] = {}
        for exp_id, observe in self.observers:
            try:
                observed[exp_id] = observe(cell)
                # Pool, wire and caches all pickle the value;
                # refusing it here types the failure on every path.
                pickle.dumps(observed[exp_id], protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                raise ObserveError(exp_id, self.scenario.describe(), seed, repr(exc)) from exc
        return ObservedArtifacts(
            self.scenario, cell.seed, ArtifactLevel.STATS,
            cell.client_stats, cell.server_stats, cell.duration_ms, observed=observed,
        )


def _qualified(fn: Callable[..., Any]) -> str:
    return f"{fn.__module__}.{fn.__qualname__}"
