"""Cross-experiment suite planning and execution.

The paper's ~19 figures/tables sweep overlapping regions of one
(client × server-mode × loss-pattern × RTT) space: fig6 is the 9 ms
column of fig12, fig7 of fig13, and the ablations re-run unpadded
baseline cells. Because every experiment now *declares* its demand
(:meth:`~repro.experiments.spec.ExperimentSpec.cells`), a suite run
can plan the union:

1. **Plan** — collect each selected experiment's cells, dedupe
   identical ``(scenario value, seed)`` cells across experiments, and
   attach to each unique cell the ``observe`` functions of the
   trace-reading experiments that demand it and the union of the
   sources they declare they read — and, when every experiment
   demanding the cell declares when its value is final (``answered``;
   no ``stats`` experiment does), those predicates, which end it.
2. **Execute** — run the unique cells once, through
   :func:`~repro.runtime.workloop.run_work` (the result store and
   dispatch live there, not here): the simulator cells in one
   call, then the wild experiments' scan and study passes — seconds
   each, not milliseconds — in a second, one pass per chunk. A cell
   with observers runs as an
   :class:`~repro.runtime.artifacts.ObservedCell` (the qlogs and
   captures its observers declared, or its probe list, live only while
   they read them, in the process that produced them; stats plus the
   observed values come back); every other cell is a plain stats cell.
3. **Fan out** — hand every experiment a
   :class:`~repro.experiments.spec.CellResults` view onto exactly its
   cells (in its declared order; artifacts for a stats experiment,
   observed values for an observing one) and call its pure aggregator.

Stats beside an observation are bit-identical to a ``stats``-level run
(retention never perturbs connection behavior) unless the cell halted,
and a halted cell's are read by nobody, so an experiment's result does
not depend on what else was selected with it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.errors import BackendError, InvalidOverride
from repro.runtime.artifacts import ArtifactLevel, ObservedCell, Observer
from repro.runtime.backend import ExecutionBackend, LocalBackend
from repro.runtime.cache import scenario_key
from repro.runtime.disk_cache import DiskResultCache
from repro.runtime.events import (
    EventSink,
    ExperimentCompleted,
    SuiteCompleted,
    SuitePlanned,
    emit,
)
from repro.runtime.matrix import Cell
from repro.runtime.workloop import run_work
from repro.schema import BUNDLE_SCHEMA_VERSION


def cell_key(cell: Cell) -> Optional[Tuple[Any, ...]]:
    """Value identity of a cell for cross-experiment dedup, or ``None``
    when the scenario defeats value identity (custom loss patterns) —
    such cells are planned as always-unique."""
    skey = scenario_key(cell.scenario)
    if skey is None:
        return None
    return (skey, cell.seed)


def max_level(levels: Sequence[ArtifactLevel]) -> ArtifactLevel:
    """The slimmest level that covers every requirement."""
    best = ArtifactLevel.STATS
    for level in levels:
        if level.covers(best):
            best = level
    return best


@dataclass
class PlannedExperiment:
    """One experiment's slice of a suite plan."""

    spec: Any  # ExperimentSpec (typed loosely: runtime must not import experiments)
    params: Dict[str, Any]
    cells: List[Cell]
    #: For each of this experiment's cells, its index into the plan's
    #: unique cell list.
    slots: List[int]


@dataclass
class SuitePlan:
    """The union-of-cells execution plan for a set of experiments."""

    experiments: List[PlannedExperiment]
    unique_cells: List[Cell]
    #: The richest level any selected experiment reads (reporting
    #: only; no cell runs "at" it).
    artifact_level: ArtifactLevel
    #: What executes, slot for slot: ``unique_cells`` with each observed
    #: cell wrapped in an :class:`~repro.runtime.artifacts.ObservedCell`.
    dispatch_cells: List[Cell]

    @property
    def total_cells(self) -> int:
        return sum(len(p.cells) for p in self.experiments)

    @property
    def shared_cells(self) -> int:
        """Cells deduplicated away by cross-experiment planning."""
        return self.total_cells - len(self.unique_cells)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiments": [
                {
                    "id": p.spec.id,
                    "kind": p.spec.kind,
                    "artifact_level": p.spec.artifact_level.value,
                    "cells": len(p.cells),
                }
                for p in self.experiments
            ],
            "total_cells": self.total_cells,
            "unique_cells": len(self.unique_cells),
            "shared_cells": self.shared_cells,
            "artifact_level": self.artifact_level.value,
        }

    def describe(self) -> str:
        from repro.analysis.render import render_table

        rows = [
            [p.spec.id, p.spec.kind, p.spec.artifact_level.value, len(p.cells)]
            for p in self.experiments
        ]
        rows.append(["(suite)", "-", self.artifact_level.value, len(self.unique_cells)])
        table = render_table(
            ["experiment", "kind", "artifact level", "cells"],
            rows,
            title="Suite plan",
        )
        text = (
            f"{table}\n"
            f"total cells: {self.total_cells}, unique after dedup: "
            f"{len(self.unique_cells)} ({self.shared_cells} shared)"
        )
        tasks = [c.scenario for c in self.dispatch_cells if isinstance(c.scenario, ObservedCell)]
        if tasks:
            ids = sorted(p.spec.id for p in self.experiments if p.spec.observe and p.cells)
            text += f"\n{len(tasks)} of {len(self.unique_cells)} cells observed: {', '.join(ids)}"
            halting = sum(bool(task.answered) for task in tasks)
            if halting:
                text += f"\n{halting} of them end once their observers are answered"
        return text


@dataclass
class SuiteReport:
    """Results plus execution accounting of one suite run."""

    plan: SuitePlan
    results: Dict[str, Any]  # id -> ExperimentResult
    executed_cells: int
    extra: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        parts = [result.render() for result in self.results.values()]
        shared = self.plan.shared_cells
        parts.append(f"suite: {self.executed_cells} cells executed ({shared} shared)")
        return "\n\n".join(parts)

    def accounting(self) -> Dict[str, Any]:
        """How the suite executed — a job's summary; off the bundle,
        whose bytes must not depend on cache warmth."""
        return {
            "experiments": sorted(self.results),
            "executed_cells": self.executed_cells,
            **self.extra,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": BUNDLE_SCHEMA_VERSION,
            "plan": self.plan.to_dict(),
            "executed_cells": self.executed_cells,
            "results": {exp_id: result.to_dict() for exp_id, result in self.results.items()},
        }


class SuiteRunner:
    """Plans and executes any selection of registered experiments.

    ``backend``
        Optional caller-owned
        :class:`~repro.runtime.backend.ExecutionBackend` (a session's
        :class:`~repro.runtime.backend.LocalBackend`, or a
        :class:`~repro.runtime.distributed.SocketBackend` serving
        remote workers), never closed by the suite; without one each
        :meth:`run` uses a ``LocalBackend(workers)`` of its own. Chunk
        sizing and cell observation are the same everywhere — only
        *where* cells run changes.
    ``on_event``
        Optional :class:`~repro.runtime.events.EventSink` receiving
        typed progress events (:class:`SuitePlanned`, chunk/cell
        progress from the execution layer, worker membership on a
        distributed backend, :class:`ExperimentCompleted`,
        :class:`SuiteCompleted`). The sink is attached to the backend
        for the duration of each :meth:`run` and whatever was attached
        before (a session-lifetime sink observing worker membership
        between runs) is restored afterwards.
    ``disk_cache``
        Optional durable content-addressed result cache (a
        :class:`~repro.runtime.disk_cache.DiskResultCache` or a
        directory path): planned unique cells whose fingerprint is
        already stored are *replayed* instead of dispatched, so served
        bundles stay byte-identical to uncached runs, and executed
        cells are stored as their batches arrive, surviving process,
        daemon, fleet and coordinator crashes — the identical run
        started again executes only what was not stored. Scenarios
        that defeat value identity skip the cache. This run's own
        hit/miss counts land on
        ``report.extra["disk_cache_hits"/"disk_cache_misses"]``
        (deliberately off the bundle: bytes must not depend on cache
        warmth).
    """

    def __init__(
        self,
        workers: int = 0,
        backend: Optional[ExecutionBackend] = None,
        on_event: Optional[EventSink] = None,
        disk_cache: Optional[Union[str, DiskResultCache]] = None,
    ):
        self.workers = workers
        self.backend = backend
        self.on_event = on_event
        if isinstance(disk_cache, str):
            disk_cache = DiskResultCache(disk_cache)
        self.disk_cache = disk_cache

    # -- planning -------------------------------------------------------

    def plan(
        self,
        experiments: Sequence[Any],
        overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
        smoke: bool = False,
    ) -> SuitePlan:
        """Resolve params, collect cells, and dedupe across experiments.

        ``experiments`` are ids or :class:`ExperimentSpec` objects;
        ``overrides`` maps experiment id → parameter overrides.
        """
        from repro.experiments.registry import get_spec

        overrides = overrides or {}
        planned: List[PlannedExperiment] = []
        unique: List[Cell] = []
        slot_of: Dict[Tuple[Any, ...], int] = {}
        specs: Dict[str, Any] = {}
        observers: Dict[int, List[Observer]] = {}
        stats_read: Set[int] = set()  # slots a stats-level experiment reads
        seen_ids = set()
        for experiment in experiments:
            spec = get_spec(experiment)
            if spec.id in seen_ids:
                raise InvalidOverride(f"experiment {spec.id!r} selected twice")
            seen_ids.add(spec.id)
            exp_overrides = overrides.get(spec.id)
            params = spec.resolve_params(exp_overrides, smoke=smoke)
            try:
                cells = spec.plan_cells(params)
            except (ValueError, TypeError) as exc:
                # A well-shaped override the experiment cannot plan
                # with (repetitions=0, a negative RTT): the caller's
                # mistake, reported before any cell is dispatched.
                raise InvalidOverride(f"{spec.id}: {exc}") from exc
            slots: List[int] = []
            for cell in cells:
                key = cell_key(cell)
                slot = slot_of.get(key) if key is not None else None
                if slot is None:
                    slot = len(unique)
                    unique.append(cell)
                    if key is not None:
                        slot_of[key] = slot
                slots.append(slot)
            if cells:
                specs[spec.id] = spec
                if spec.observe is not None:
                    for slot in slots:
                        observers.setdefault(slot, []).append((spec.id, spec.observe))
                else:
                    stats_read.update(slots)
            planned.append(PlannedExperiment(spec=spec, params=params, cells=cells, slots=slots))
        unknown = set(overrides) - seen_ids
        if unknown:
            raise InvalidOverride(f"overrides for unselected experiments: {sorted(unknown)}")
        # One ObservedCell per (scenario object, observer set, halting),
        # shared by that scenario's repetitions like the scenario itself is.
        dispatch = list(unique) if observers else unique
        wrappers: Dict[Tuple[Any, ...], ObservedCell] = {}
        for slot, readers in observers.items():
            cell = unique[slot]
            halts = slot not in stats_read and all(
                specs[exp_id].answered is not None for exp_id, _ in readers
            )
            key = (id(cell.scenario), halts, *readers)
            if key not in wrappers:
                reading = [specs[exp_id] for exp_id, _ in readers]
                wrappers[key] = ObservedCell(
                    cell.scenario,
                    max_level([spec.artifact_level for spec in reading]),
                    tuple(readers),
                    frozenset(source for spec in reading for source in spec.reads),
                    tuple((spec.reads[0], spec.answered) for spec in reading) if halts else (),
                )
            dispatch[slot] = Cell(wrappers[key], cell.seed)
        return SuitePlan(
            experiments=planned,
            unique_cells=unique,
            artifact_level=max_level([spec.artifact_level for spec in specs.values()]),
            dispatch_cells=dispatch,
        )

    # -- execution ------------------------------------------------------

    def run(
        self,
        experiments: Sequence[Any],
        overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
        smoke: bool = False,
    ) -> SuiteReport:
        """Plan, execute unique cells once, fan results out."""
        from repro.experiments.spec import CellResults

        plan = self.plan(experiments, overrides=overrides, smoke=smoke)
        emit(
            self.on_event,
            SuitePlanned(
                experiments=tuple(p.spec.id for p in plan.experiments),
                total_cells=plan.total_cells,
                unique_cells=len(plan.unique_cells),
                shared_cells=plan.shared_cells,
                artifact_level=plan.artifact_level.value,
            ),
        )
        backend = self.backend if self.backend is not None else LocalBackend(self.workers)
        # Distributed backends accumulate worker-resident cache hits;
        # snapshot so the run's delta can be reported. Deliberately kept
        # out of to_dict(): bundle bytes must not depend on how warm the
        # fleet happens to be.
        wc0 = getattr(getattr(backend, "stats", None), "worker_cache_hits", None)
        try:
            entries: List[Any] = [None] * len(plan.dispatch_cells)

            def fill(slot: int, artifacts: Any, _source: str) -> None:
                entries[slot] = artifacts

            # Wild passes are 0.1–2 s items beside ~1 ms simulator cells
            # and backends size chunks by count: the passes follow the
            # cells in a call of their own, one per chunk.
            cells: List[Any] = []
            passes: List[Any] = []
            for slot, (cell, planned) in enumerate(zip(plan.dispatch_cells, plan.unique_cells)):
                is_pass = hasattr(planned.scenario, "execute_task")
                (passes if is_pass else cells).append((slot, cell.scenario, cell.seed))
            counts: Counter = Counter()
            try:
                for items, chunk_size in ((cells, None), (passes, 1)):
                    counts += run_work(
                        backend,
                        items,
                        fill,
                        cache=self.disk_cache,
                        chunk_size=chunk_size,
                        sink=self.on_event,
                    )
            except BackendError as exc:
                named = self._name_poison(exc, plan)
                if named is not None:
                    raise named from exc
                raise
            # Results come back scenario-less (wire, cache) or
            # carrying their ObservedCell; aggregators see the plan's own.
            for artifacts, cell in zip(entries, plan.unique_cells):
                artifacts.scenario = cell.scenario
            results: Dict[str, Any] = {}
            for planned in plan.experiments:
                spec = planned.spec
                mine = [entries[slot] for slot in planned.slots]
                if spec.observe is not None:
                    mine = [artifacts.observed[spec.id] for artifacts in mine]
                result = spec.aggregate(CellResults(mine), planned.params)
                results[spec.id] = result
                emit(
                    self.on_event,
                    ExperimentCompleted(
                        experiment_id=spec.id,
                        rows=len(getattr(result, "rows", []) or []),
                    ),
                )
            report = SuiteReport(plan, results, executed_cells=len(plan.unique_cells))
            if wc0 is not None:
                report.extra["worker_cache_hits"] = backend.stats.worker_cache_hits - wc0
            if self.disk_cache is not None:
                report.extra["disk_cache_hits"] = counts["disk_cache"]
                report.extra["disk_cache_misses"] = counts["missed"]
            emit(self.on_event, SuiteCompleted(executed_cells=report.executed_cells))
            return report
        finally:
            if backend is not self.backend:
                backend.close()

    def _name_poison(self, exc: BackendError, plan: SuitePlan) -> Optional[BackendError]:
        """Enrich a poison-chunk abort with the experiment ids whose
        cells it carried (``None`` when the failure carries no cells or
        none map back to the plan)."""
        poison = getattr(exc, "poison_cells", None)
        if not poison:
            return None
        slot_of = {
            (id(cell.scenario), cell.seed): slot
            for slot, cell in enumerate(plan.dispatch_cells)
        }
        slots = set()
        for scenario, seed in poison:
            slot = slot_of.get((id(scenario), seed))
            if slot is not None:
                slots.add(slot)
        experiment_ids = sorted(
            p.spec.id for p in plan.experiments if slots & set(p.slots)
        )
        if not experiment_ids:
            return None
        named = BackendError(f"{exc} (experiments affected: {', '.join(experiment_ids)})")
        named.poison_cells = poison
        return named
