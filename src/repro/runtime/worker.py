"""Process-pool worker entry points.

Everything dispatched to a worker must be a module-level callable with
picklable arguments; this module is the complete set of remote entry
points the backends of :mod:`repro.runtime.backend` and
:mod:`repro.runtime.distributed` dispatch.

Workers recreate a :class:`~repro.interop.runner.Runner` per chunk
(construction is trivial) and return slim :class:`RunArtifacts`; the
chunk index travels with the payload so the parent can reassemble
results in submission order regardless of completion order.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.interop.runner import Runner, Scenario
from repro.runtime.artifacts import ArtifactLevel, ObservedCell, RunArtifacts, execute_cell

#: One dispatched cell: (position in the caller's cell list, scenario, seed).
IndexedCell = Tuple[int, Scenario, int]

#: Wire format of a dispatched chunk: each scenario is pickled once and
#: carries its (index, seed) repetitions — a sweep ships 16 scenarios,
#: not 400 copies.
GroupedChunk = Sequence[Tuple[Scenario, Sequence[Tuple[int, int]]]]


def group_cells(cells: Sequence[IndexedCell]) -> List[Tuple[Scenario, List[Tuple[int, int]]]]:
    """Collapse consecutive same-scenario cells so each scenario object
    is pickled once per chunk instead of once per repetition."""
    groups: List[Tuple[Scenario, List[Tuple[int, int]]]] = []
    last_id: Optional[int] = None
    for index, scenario, seed in cells:
        if last_id != id(scenario):
            groups.append((scenario, []))
            last_id = id(scenario)
        groups[-1][1].append((index, seed))
    return groups


def runs_alone(task: Any) -> bool:
    """Whether a cell's task gets a chunk of its own: true for a task
    cell that is not a simulator :class:`Scenario` — a wild scan or
    study pass, bare or in its :class:`ObservedCell`, or a scan shard.
    Those run for 0.1–2.6 s where a simulator cell runs for about 1 ms,
    so a chunk sized by cell count must never bury one among others."""
    if isinstance(task, ObservedCell):
        task = task.scenario
    return hasattr(task, "execute_task")


def chunk_cell_count(chunk: GroupedChunk) -> int:
    """How many cells a grouped chunk carries (for progress events)."""
    return sum(len(pairs) for _scenario, pairs in chunk)


def run_cell_chunk(chunk: GroupedChunk, level_value: str) -> List[Tuple[int, RunArtifacts]]:
    """Execute a chunk of scenario groups and tag each result with its
    original position.

    The scenario is dropped from every returned artifact — the parent
    already holds it and reattaches it, halving the response pickle.
    """
    level = ArtifactLevel(level_value)
    runner = Runner()
    out: List[Tuple[int, RunArtifacts]] = []
    for scenario, pairs in chunk:
        for index, seed in pairs:
            artifacts = execute_cell(scenario, seed, level, runner=runner)
            artifacts.scenario = None
            out.append((index, artifacts))
    return out
