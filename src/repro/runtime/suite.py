"""Cross-experiment suite planning and execution.

The paper's ~19 figures/tables sweep overlapping regions of one
(client × server-mode × loss-pattern × RTT) space: fig6 is the 9 ms
column of fig12, fig7 of fig13, and the ablations re-run unpadded
baseline cells. Because every experiment now *declares* its demand
(:meth:`~repro.experiments.spec.ExperimentSpec.cells`), a suite run
can plan the union:

1. **Plan** — collect each selected experiment's cells, dedupe
   identical ``(scenario value, seed)`` cells across experiments, and
   take the max required artifact level.
2. **Execute** — run the unique cells once on a single shared
   :class:`~repro.runtime.matrix.MatrixRunner` at that level,
   optionally streaming each finished cell to a disk-backed
   :class:`~repro.runtime.store.ArtifactStore` so trace-level suites
   never hold the whole sweep in memory.
3. **Fan out** — hand every experiment a
   :class:`~repro.experiments.spec.CellResults` view onto exactly its
   cells (in its declared order) and call its pure aggregator.

Stats at a richer artifact level are bit-identical to a ``stats``-level
run (retention never perturbs connection behavior), so an experiment's
result does not depend on what else was selected with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import BackendError, CheckpointError, InvalidOverride
from repro.runtime.artifacts import ArtifactLevel
from repro.runtime.backend import ExecutionBackend
from repro.runtime.cache import scenario_key
from repro.runtime.checkpoint import SuiteCheckpoint, plan_fingerprint
from repro.runtime.disk_cache import DiskResultCache
from repro.runtime.events import (
    EventSink,
    ExperimentCompleted,
    SuiteCompleted,
    SuitePlanned,
    emit,
)
from repro.runtime.matrix import Cell, MatrixRunner
from repro.runtime.store import ArtifactHandle, ArtifactStore
from repro.schema import BUNDLE_SCHEMA_VERSION

#: Unique-cell batch size for streamed execution: large enough to keep
#: a worker pool busy, small enough to bound in-memory artifacts.
STREAM_BATCH_CELLS = 64


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
    artifact_level: ArtifactLevel

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
        return (
            f"{table}\n"
            f"total cells: {self.total_cells}, unique after dedup: "
            f"{len(self.unique_cells)} ({self.shared_cells} shared)"
        )


@dataclass
class SuiteReport:
    """Results plus execution accounting of one suite run."""

    plan: SuitePlan
    results: Dict[str, Any]  # id -> ExperimentResult
    executed_cells: int
    spilled_cells: int = 0
    spill_bytes: int = 0
    #: Always 0: the in-memory suite cache that fed these is gone, but
    #: the golden ``suite.json`` pins the keys; dropping them is a
    #: bundle schema-version bump.
    cache_hits: int = 0
    cache_misses: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        parts = [result.render() for result in self.results.values()]
        parts.append(
            f"suite: {self.executed_cells} cells executed "
            f"({self.plan.shared_cells} shared, "
            f"{self.spilled_cells} spilled to disk)"
        )
        return "\n\n".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        # spill_bytes (and extra) stay off the bundle deliberately:
        # bundle bytes must not depend on *how* a suite executed, and
        # spilled pickle sizes differ by a hair between in-process and
        # wire-shipped artifacts (the worker's scenario strip severs
        # scenario-subobject sharing inside the pickle graph) even
        # though the loaded values are identical. Operational
        # accounting lives on the report object, results in the bundle.
        return {
            "schema_version": BUNDLE_SCHEMA_VERSION,
            "plan": self.plan.to_dict(),
            "executed_cells": self.executed_cells,
            "spilled_cells": self.spilled_cells,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "results": {exp_id: result.to_dict() for exp_id, result in self.results.items()},
        }


class SuiteRunner:
    """Plans and executes any selection of registered experiments.

    ``spill``
        ``"auto"`` (default) streams cells to disk whenever the plan's
        level retains more than stats; ``"always"`` / ``"never"``
        force it. ``full``-level plans never spill (live endpoints are
        unpicklable).
    ``spill_dir``
        Optional spill directory, kept on disk after the run; the
        default is a temporary directory deleted when the run ends.
    ``backend``
        Optional caller-owned
        :class:`~repro.runtime.backend.ExecutionBackend` (e.g. a
        :class:`~repro.runtime.distributed.SocketBackend` serving
        remote workers); it is threaded into the runner each run
        creates and never closed by the suite. Chunk sizing,
        artifact-level promotion, and disk spill all behave exactly as
        with local execution — only *where* chunks run changes.
    ``on_event``
        Optional :class:`~repro.runtime.events.EventSink` receiving
        typed progress events (:class:`SuitePlanned`, chunk/cell
        progress from the execution layer, worker membership on a
        distributed backend, :class:`ExperimentCompleted`,
        :class:`SuiteCompleted`). On a caller-owned ``backend`` the
        sink is attached for the duration of each :meth:`run`.
    ``disk_cache``
        Optional durable content-addressed result cache (a
        :class:`~repro.runtime.disk_cache.DiskResultCache` or a
        directory path): planned unique cells whose fingerprint is
        already stored are *replayed* instead of dispatched — exactly
        like checkpoint resume, so served bundles stay byte-identical
        to uncached runs — and freshly executed cells are stored for
        every later run, surviving process, daemon, and fleet
        restarts. ``full``-level plans skip the cache (live endpoints
        are unpicklable), as do scenarios that defeat value identity.
        Per-run hit/miss accounting lands on
        ``report.extra["disk_cache_hits"/"disk_cache_misses"]``
        (deliberately off the bundle: bytes must not depend on cache
        warmth).
    ``checkpoint_dir``
        Optional crash-safe checkpoint directory (see
        :mod:`repro.runtime.checkpoint`): completed cells are
        journaled there as they finish, and a run that finds a
        checkpoint for the *same* planned suite replays the journaled
        cells and executes only the remainder — the resumed bundle is
        byte-identical to an uninterrupted run. A checkpoint for a
        different suite raises
        :class:`~repro.errors.CheckpointError`. ``full``-level plans
        cannot checkpoint (live endpoints are unpicklable).
    """

    def __init__(
        self,
        workers: int = 0,
        spill: str = "auto",
        spill_dir: Optional[str] = None,
        backend: Optional[ExecutionBackend] = None,
        on_event: Optional[EventSink] = None,
        checkpoint_dir: Optional[str] = None,
        disk_cache: Optional[Union[str, DiskResultCache]] = None,
    ):
        if spill not in ("auto", "always", "never"):
            raise ValueError("spill must be 'auto', 'always', or 'never'")
        self.workers = workers
        self.spill = spill
        self.spill_dir = spill_dir
        self.backend = backend
        self.on_event = on_event
        self.checkpoint_dir = checkpoint_dir
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
        levels: List[ArtifactLevel] = []
        seen_ids = set()
        for experiment in experiments:
            spec = get_spec(experiment)
            if spec.id in seen_ids:
                raise InvalidOverride(f"experiment {spec.id!r} selected twice")
            seen_ids.add(spec.id)
            exp_overrides = overrides.get(spec.id)
            # self.workers flows into specs that declare a workers
            # parameter (the wild experiments fan out their own passes).
            params = spec.resolve_params(exp_overrides, smoke=smoke, workers=self.workers)
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
                levels.append(spec.artifact_level)
            planned.append(PlannedExperiment(spec=spec, params=params, cells=cells, slots=slots))
        unknown = set(overrides) - seen_ids
        if unknown:
            raise InvalidOverride(f"overrides for unselected experiments: {sorted(unknown)}")
        return SuitePlan(
            experiments=planned,
            unique_cells=unique,
            artifact_level=max_level(levels),
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
        checkpoint, completed = self._resolve_checkpoint(plan)
        store, owned_store = self._resolve_store(plan)
        runner = MatrixRunner(
            workers=self.workers,
            artifact_level=plan.artifact_level,
            backend=self.backend,
            on_event=self.on_event,
        )
        disk = self.disk_cache
        disk0 = (disk.hits, disk.misses) if disk is not None else (0, 0)
        # Distributed backends accumulate worker-resident cache hits;
        # snapshot so the run's delta can be reported. Deliberately kept
        # out of to_dict(): bundle bytes must not depend on how warm the
        # fleet happens to be.
        backend = self.backend
        wc0 = getattr(getattr(backend, "stats", None), "worker_cache_hits", None)
        # Attach this run's sink to a caller-owned backend for the
        # duration of the run, restoring whatever was attached before
        # (e.g. a Session-lifetime sink observing worker membership
        # between runs) rather than clobbering it.
        prev_sink = None
        if self.on_event is not None and self.backend is not None:
            prev_sink = self.backend._event_sink
            self.backend.set_event_sink(self.on_event)
        try:
            entries: Sequence[Any]
            try:
                entries = self._execute_cells(runner, plan, store, checkpoint, completed)
            except BackendError as exc:
                named = self._name_poison(exc, plan)
                if named is not None:
                    raise named from exc
                raise
            results: Dict[str, Any] = {}
            spilled = sum(1 for e in entries if isinstance(e, ArtifactHandle))
            for planned in plan.experiments:
                view = CellResults([entries[slot] for slot in planned.slots], store=store)
                result = planned.spec.aggregate(view, planned.params)
                results[planned.spec.id] = result
                emit(
                    self.on_event,
                    ExperimentCompleted(
                        experiment_id=planned.spec.id,
                        rows=len(getattr(result, "rows", []) or []),
                    ),
                )
            report = SuiteReport(
                plan=plan,
                results=results,
                executed_cells=len(plan.unique_cells),
                spilled_cells=spilled,
                spill_bytes=store.bytes_written if store is not None else 0,
            )
            if wc0 is not None:
                report.extra["worker_cache_hits"] = backend.stats.worker_cache_hits - wc0
            if disk is not None:
                report.extra["disk_cache_hits"] = disk.hits - disk0[0]
                report.extra["disk_cache_misses"] = disk.misses - disk0[1]
            emit(
                self.on_event,
                SuiteCompleted(
                    executed_cells=report.executed_cells,
                    spilled_cells=report.spilled_cells,
                    cache_hits=report.cache_hits,
                ),
            )
            return report
        finally:
            if owned_store and store is not None:
                store.close()
            runner.close()
            if self.on_event is not None and self.backend is not None:
                self.backend.set_event_sink(prev_sink)

    def _resolve_checkpoint(
        self, plan: SuitePlan
    ) -> Tuple[Optional[SuiteCheckpoint], Dict[int, Any]]:
        """Open (or initialize) the checkpoint for this plan and load
        whatever a previous run already completed."""
        if self.checkpoint_dir is None or not plan.unique_cells:
            return None, {}
        if plan.artifact_level is ArtifactLevel.FULL:
            raise CheckpointError(
                "artifact level 'full' retains live endpoint objects and "
                "cannot be checkpointed; use a slimmer level or drop "
                "checkpoint_dir"
            )
        checkpoint = SuiteCheckpoint(self.checkpoint_dir)
        completed = checkpoint.load_or_init(
            plan_fingerprint(plan),
            meta={
                "experiments": [p.spec.id for p in plan.experiments],
                "unique_cells": len(plan.unique_cells),
                "artifact_level": plan.artifact_level.value,
            },
        )
        # Indices outside the plan cannot appear under a matching
        # fingerprint; drop them defensively rather than crash below.
        completed = {
            index: artifacts
            for index, artifacts in completed.items()
            if 0 <= index < len(plan.unique_cells)
        }
        return checkpoint, completed

    def _execute_cells(
        self,
        runner: MatrixRunner,
        plan: SuitePlan,
        store: Optional[ArtifactStore],
        checkpoint: Optional[SuiteCheckpoint],
        completed: Dict[int, Any],
    ) -> List[Any]:
        """Execute the plan's unique cells — replaying journaled
        results first on a resume, journaling fresh ones as they
        complete — and return one entry per plan cell, in plan order
        (artifacts, or :class:`ArtifactHandle` when spilling)."""
        cells = plan.unique_cells
        entries_by_slot: Dict[int, Any] = {}
        for slot, artifacts in completed.items():
            # Journaled artifacts crossed the wire with their scenario
            # stripped; restore it from the authoritative plan, then
            # spill replayed cells immediately so a resumed trace-level
            # suite keeps the same peak-memory bound as a fresh one.
            artifacts.scenario = cells[slot].scenario
            entries_by_slot[slot] = store.put(artifacts) if store is not None else artifacts
        # Durable disk cache: replay any cell whose content address is
        # already stored — exactly like checkpoint resume above, so the
        # served bundle stays byte-identical — and remember the keys of
        # the misses so freshly executed cells feed the cache below.
        disk = self.disk_cache
        disk_keys: Dict[int, str] = {}
        if disk is not None and plan.artifact_level is not ArtifactLevel.FULL:
            for slot, cell in enumerate(cells):
                if slot in entries_by_slot:
                    continue
                key = disk.fingerprint(cell.scenario, cell.seed, plan.artifact_level)
                if key is None:
                    continue
                artifacts = disk.get(key)
                if artifacts is None:
                    disk_keys[slot] = key
                    continue
                artifacts.scenario = cell.scenario
                entries_by_slot[slot] = store.put(artifacts) if store is not None else artifacts
        positions = [slot for slot in range(len(cells)) if slot not in entries_by_slot]
        pending = [cells[slot] for slot in positions]
        if pending:
            batch_size = STREAM_BATCH_CELLS if store is not None else len(pending)
            base = 0
            if checkpoint is not None:

                def journal(batch):
                    # Indices from the runner are batch-local; shift
                    # them to plan-global positions before they hit
                    # the journal.
                    checkpoint.record(
                        [(positions[base + index], artifacts) for index, artifacts in batch]
                    )

                runner.result_observer = journal
            try:
                for start in range(0, len(pending), batch_size):
                    base = start
                    batch = runner.run_cells(pending[start : start + batch_size])
                    for offset, artifacts in enumerate(batch):
                        slot = positions[start + offset]
                        if disk is not None and slot in disk_keys:
                            disk.put(disk_keys[slot], artifacts)
                        entries_by_slot[slot] = (
                            store.put(artifacts) if store is not None else artifacts
                        )
            finally:
                if checkpoint is not None:
                    runner.result_observer = None
        return [entries_by_slot[slot] for slot in range(len(cells))]

    def _name_poison(self, exc: BackendError, plan: SuitePlan) -> Optional[BackendError]:
        """Enrich a poison-chunk abort with the experiment ids whose
        cells it carried (``None`` when the failure carries no cells or
        none map back to the plan)."""
        poison = getattr(exc, "poison_cells", None)
        if not poison:
            return None
        slot_of = {
            (id(cell.scenario), cell.seed): slot
            for slot, cell in enumerate(plan.unique_cells)
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

    def _resolve_store(self, plan: SuitePlan) -> Tuple[Optional[ArtifactStore], bool]:
        if not plan.unique_cells or plan.artifact_level is ArtifactLevel.FULL:
            return None, False
        if self.spill == "never":
            return None, False
        if self.spill == "auto" and plan.artifact_level is ArtifactLevel.STATS:
            return None, False
        return ArtifactStore(self.spill_dir), True

