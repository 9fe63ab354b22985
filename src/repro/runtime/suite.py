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
   no ``stats`` experiment does), those predicates, which end it. The
   plan is immutable and carries each cell's store key; a repeated
   request is served the plan made for its first (see
   :meth:`SuiteRunner.plan`).
2. **Execute** — run the unique cells once, through
   :func:`~repro.runtime.workloop.run_work` (the result store and
   dispatch live there, not here), in one call: the simulator cells
   and the wild experiments' scan and study passes — seconds each, not
   milliseconds — together, which the backend carves so that each
   pass has a chunk of its own. A cell
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

import copy
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import BackendError, InvalidOverride
from repro.interop.runner import Scenario
from repro.runtime.artifacts import ArtifactLevel, ObservedCell, Observer
from repro.runtime.backend import ExecutionBackend
from repro.runtime.cache import ResultCache, scenario_key, value_key
from repro.runtime.disk_cache import CellKey, DiskResultCache
from repro.runtime.events import (
    EventSink,
    ExperimentCompleted,
    SuiteCompleted,
    SuitePlanned,
    emit,
)
from repro.runtime.workloop import LEVEL, run_work
from repro.schema import BUNDLE_SCHEMA_VERSION


@dataclass(frozen=True)
class Cell:
    """One point of the scenario matrix."""

    scenario: Scenario
    seed: int


def max_level(levels: Sequence[ArtifactLevel]) -> ArtifactLevel:
    """The slimmest level that covers every requirement."""
    best = ArtifactLevel.STATS
    for level in levels:
        if level.covers(best):
            best = level
    return best


@dataclass(frozen=True)
class PlannedExperiment:
    """One experiment's slice of a suite plan."""

    spec: Any  # ExperimentSpec (typed loosely: runtime must not import experiments)
    #: The resolved parameters, read-only: ``cells`` and ``aggregate``
    #: see this mapping, and later runs of the same request share it.
    params: Mapping[str, Any]
    cells: Tuple[Cell, ...]
    #: For each of this experiment's cells, its index into the plan's
    #: unique cell list.
    slots: Tuple[int, ...]


@dataclass(frozen=True)
class SuitePlan:
    """The union-of-cells execution plan for a set of experiments.

    Immutable: :meth:`SuiteRunner.plan` hands the same plan to every
    repeat of a request."""

    experiments: Tuple[PlannedExperiment, ...]
    unique_cells: Tuple[Cell, ...]
    #: The richest level any selected experiment reads (reporting
    #: only; no cell runs "at" it).
    artifact_level: ArtifactLevel
    #: What executes, slot for slot: ``unique_cells`` with each observed
    #: cell wrapped in an :class:`~repro.runtime.artifacts.ObservedCell`.
    dispatch_cells: Tuple[Cell, ...]
    #: Slot for slot, the store key of each dispatch cell (what
    #: :meth:`~repro.runtime.disk_cache.DiskResultCache.fingerprint`
    #: returns for it at :data:`~repro.runtime.workloop.LEVEL`;
    #: ``None`` for a cell without a value identity).
    keys: Tuple[Optional[CellKey], ...]

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

    def to_dict(self, payloads: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """The ``suite.json`` document. ``payloads`` stands in for each
        result's ``to_dict()`` (a bundle passes the texts it already
        rendered)."""
        if payloads is None:
            payloads = {exp_id: result.to_dict() for exp_id, result in self.results.items()}
        return {
            "schema_version": BUNDLE_SCHEMA_VERSION,
            "plan": self.plan.to_dict(),
            "executed_cells": self.executed_cells,
            "results": dict(payloads),
        }


class SuiteRunner:
    """Plans and executes any selection of registered experiments.

    ``backend``
        The caller-owned
        :class:`~repro.runtime.backend.ExecutionBackend` :meth:`run`
        executes on (a session's
        :class:`~repro.runtime.backend.LocalBackend`, or a
        :class:`~repro.runtime.distributed.SocketBackend` serving
        remote workers), never closed by the suite; :meth:`plan` needs
        none. Chunk sizing and cell observation are the same
        everywhere — only *where* cells run changes.
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
        :class:`~repro.runtime.disk_cache.DiskResultCache`): planned
        unique cells whose fingerprint is already stored are
        *replayed* instead of dispatched, so served
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
        *,
        backend: Optional[ExecutionBackend] = None,
        on_event: Optional[EventSink] = None,
        disk_cache: Optional[DiskResultCache] = None,
    ):
        self.backend = backend
        self.on_event = on_event
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

        A plan is a function of the specs and their resolved params
        (``smoke`` reaches it only through them), so a repeated request
        is served the plan made for its first, by any runner of the
        process: the plans of the last :data:`PLAN_MEMO_ENTRIES`
        distinct requests are held, keyed by each spec's id and the
        ``repr`` of its sorted params —
        type-exact, so ``rtts_ms=[9, 100]`` and ``[9.0, 100.0]``, which
        render different rows, never share one — and a held plan is
        served only for the very spec objects it was made from.
        """
        from repro.experiments.registry import get_spec

        overrides = overrides or {}
        specs: List[Any] = []
        resolved: List[Dict[str, Any]] = []
        seen_ids = set()
        for experiment in experiments:
            spec = get_spec(experiment)
            if spec.id in seen_ids:
                raise InvalidOverride(f"experiment {spec.id!r} selected twice")
            seen_ids.add(spec.id)
            specs.append(spec)
            resolved.append(spec.resolve_params(overrides.get(spec.id), smoke=smoke))
        unknown = set(overrides) - seen_ids
        if unknown:
            raise InvalidOverride(f"overrides for unselected experiments: {sorted(unknown)}")
        key = tuple(
            (spec.id, repr(sorted(params.items()))) for spec, params in zip(specs, resolved)
        )
        plan = _PLANS.get(key)
        if plan is None or any(p.spec is not spec for p, spec in zip(plan.experiments, specs)):
            plan = _plan(specs, resolved)
            _PLANS.put(key, plan)
        return plan

    # -- execution ------------------------------------------------------

    def run(
        self,
        experiments: Sequence[Any],
        overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
        smoke: bool = False,
    ) -> SuiteReport:
        """Plan, execute unique cells once on ``backend``, fan results
        out."""
        from repro.experiments.spec import CellResults

        if self.backend is None:
            raise BackendError("SuiteRunner.run needs a backend (plan() does not)")
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
        entries: List[Any] = [None] * len(plan.dispatch_cells)

        def fill(slot: int, artifacts: Any, _source: str) -> None:
            entries[slot] = artifacts

        items = [
            (slot, cell.scenario, cell.seed, key)
            for slot, (cell, key) in enumerate(zip(plan.dispatch_cells, plan.keys))
        ]
        try:
            counts = run_work(self.backend, items, fill, cache=self.disk_cache, sink=self.on_event)
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
        if self.disk_cache is not None:
            report.extra["disk_cache_hits"] = counts["disk_cache"]
            report.extra["disk_cache_misses"] = counts["missed"]
        emit(self.on_event, SuiteCompleted(executed_cells=report.executed_cells))
        return report

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


#: How many distinct requests' plans :meth:`SuiteRunner.plan` holds,
#: least recently used out first. A constant, not a setting: the
#: measured traffic (``service_mix``) is one repeated request between
#: requests that never come again, and two entries keep the repeated
#: plan held across each of those.
PLAN_MEMO_ENTRIES = 2

#: The process's plan memo (request key → plan). A plan is immutable
#: and names no session, so every runner and daemon pool thread shares
#: it.
_PLANS = ResultCache(max_entries=PLAN_MEMO_ENTRIES)


def _plan(selected: Sequence[Any], resolved: Sequence[Dict[str, Any]]) -> SuitePlan:
    """Expand, dedupe and key the cells of the ``selected`` specs at
    their ``resolved`` params: a :meth:`SuiteRunner.plan` miss."""
    planned: List[PlannedExperiment] = []
    unique: List[Cell] = []
    #: Each scenario object's key, computed once for its repetitions
    #: (the plan's cells keep every object, and so its id, alive).
    skey_of: Dict[int, Optional[Tuple[Any, ...]]] = {}
    slot_of: Dict[Tuple[Any, ...], int] = {}
    specs: Dict[str, Any] = {}
    observers: Dict[int, List[Observer]] = {}
    stats_read: Set[int] = set()  # slots a stats-level experiment reads
    for spec, params in zip(selected, resolved):
        # A held plan outlives its request: its params are a copy no
        # caller holds, and read-only to everything downstream.
        params = MappingProxyType(copy.deepcopy(params))
        try:
            cells = tuple(spec.plan_cells(params))
        except (ValueError, TypeError) as exc:
            # A well-shaped override the experiment cannot plan
            # with (repetitions=0, a negative RTT): the caller's
            # mistake, reported before any cell is dispatched.
            raise InvalidOverride(f"{spec.id}: {exc}") from exc
        slots: List[int] = []
        for cell in cells:
            # Value identity of a cell for cross-experiment dedup;
            # a scenario without one (custom loss patterns) is
            # planned as always-unique.
            if id(cell.scenario) not in skey_of:
                skey_of[id(cell.scenario)] = scenario_key(cell.scenario)
            skey = skey_of[id(cell.scenario)]
            key = None if skey is None else (skey, cell.seed)
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
        planned.append(PlannedExperiment(spec, params, cells, tuple(slots)))
    # One ObservedCell per (scenario object, observer set, halting),
    # shared by that scenario's repetitions like the scenario itself is.
    dispatch = list(unique)
    task_keys = [skey_of[id(cell.scenario)] for cell in unique]
    wrappers: Dict[Tuple[Any, ...], Tuple[ObservedCell, Optional[Tuple[Any, ...]]]] = {}
    for slot, readers in observers.items():
        cell = unique[slot]
        halts = slot not in stats_read and all(
            specs[exp_id].answered is not None for exp_id, _ in readers
        )
        key = (id(cell.scenario), halts, *readers)
        if key not in wrappers:
            reading = [specs[exp_id] for exp_id, _ in readers]
            wrapper = ObservedCell(
                cell.scenario,
                max_level([spec.artifact_level for spec in reading]),
                tuple(readers),
                frozenset(source for spec in reading for source in spec.reads),
                tuple((spec.reads[0], spec.answered) for spec in reading) if halts else (),
            )
            wrappers[key] = (wrapper, wrapper.key_for(skey_of[id(cell.scenario)]))
        wrapper, task_keys[slot] = wrappers[key]
        dispatch[slot] = Cell(wrapper, cell.seed)
    unique_cells = tuple(unique)
    return SuitePlan(
        experiments=tuple(planned),
        unique_cells=unique_cells,
        artifact_level=max_level([spec.artifact_level for spec in specs.values()]),
        dispatch_cells=tuple(dispatch) if observers else unique_cells,
        keys=tuple(
            None if task_key is None else CellKey(value_key(task_key, cell.seed, LEVEL))
            for task_key, cell in zip(task_keys, unique)
        ),
    )
