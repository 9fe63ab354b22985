"""Parallel execution of scenario matrices.

The paper's results come from sweeping a scenario matrix — 8 clients ×
{WFC, IACK} × HTTP versions × RTTs × loss patterns, each repeated with
distinct seeds (§3). Every cell is an independent deterministic
simulation, so the sweep is embarrassingly parallel:

* :class:`MatrixRunner` expands ``(scenario × seed)`` cells, hands them
  to an :class:`~repro.runtime.backend.ExecutionBackend` — a
  :class:`~repro.runtime.backend.LocalBackend` by default (in-process,
  or contiguous chunks over a pool), or any pluggable backend such as
  the multi-host :class:`~repro.runtime.distributed.SocketBackend` —
  and returns results in cell order. Seeds are assigned ``base_seed +
  repetition`` exactly like the serial :meth:`Runner.run_repetitions`,
  so per-seed ``ConnectionStats`` are bit-identical to the serial path
  regardless of worker count, chunking, or execution host.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Union

from repro.interop.runner import Scenario
from repro.runtime.artifacts import ArtifactLevel, RunArtifacts
from repro.runtime.backend import ExecutionBackend, LocalBackend
from repro.runtime.events import EventSink


@dataclass(frozen=True)
class Cell:
    """One point of the scenario matrix."""

    scenario: Scenario
    seed: int


def default_workers() -> int:
    """Worker count when the caller passes ``workers=None`` ("parallel,
    you pick"): the CPU count, capped to keep fork storms bounded."""
    return min(8, os.cpu_count() or 1)


class MatrixRunner:
    """Executes scenario cells on an execution backend, in cell order.

    Without a ``backend`` the runner owns a
    :class:`~repro.runtime.backend.LocalBackend` of ``workers``:
    ``workers <= 1`` executes in-process (no pool, no pickling) — the
    deterministic reference path — and ``workers >= 2`` dispatches
    chunks to a process pool that is created on first use and reused
    across calls; close the runner (or use it as a context manager) to
    reap it. ``workers=None`` picks :func:`default_workers`.

    ``backend`` plugs in a caller-owned
    :class:`~repro.runtime.backend.ExecutionBackend` instead — e.g. a
    :class:`~repro.runtime.distributed.SocketBackend` serving chunks to
    remote hosts. The caller keeps ownership (the runner never closes
    it), chunk sizing follows the backend's reported parallelism, and
    every cell is routed through it regardless of ``workers``.

    ``artifact_level`` selects what each run retains (see
    :class:`~repro.runtime.artifacts.ArtifactLevel`); ``full`` keeps
    live endpoint objects and therefore needs in-process execution.
    """

    def __init__(
        self,
        workers: Optional[int] = 0,
        artifact_level: Union[ArtifactLevel, str] = ArtifactLevel.STATS,
        base_seed: int = 0,
        chunk_size: Optional[int] = None,
        backend: Optional[ExecutionBackend] = None,
        on_event: Optional[EventSink] = None,
    ):
        if workers is None:
            workers = default_workers()
        if workers < 0:
            raise ValueError("workers must be >= 0 (or None for auto)")
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive when given")
        self.workers = workers
        self.artifact_level = ArtifactLevel.coerce(artifact_level)
        self.base_seed = base_seed
        self.chunk_size = chunk_size
        self._owns_backend = backend is None
        if backend is None:
            backend = LocalBackend(workers)
            # A caller-supplied backend keeps the sink its owner attached.
            backend.set_event_sink(on_event)
        self.backend = backend
        self.on_event = on_event
        if self.artifact_level is ArtifactLevel.FULL and not backend.in_process:
            raise ValueError(
                "artifact level 'full' retains live endpoint objects and "
                "cannot cross process boundaries; use workers<=1 or a "
                "slimmer level"
            )

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "MatrixRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the owned worker pool (idempotent). A
        caller-supplied ``backend`` stays open — its owner closes it."""
        if self._owns_backend:
            self.backend.close()

    # -- core execution -------------------------------------------------

    def run_cells(self, cells: Sequence[Cell]) -> List[RunArtifacts]:
        """Run every cell, returning results in cell order."""
        # The backend owns chunking: an explicit chunk_size pins fixed
        # slices everywhere, while chunk_size=None lets throughput-aware
        # backends (the distributed coordinator) size each worker's
        # chunks adaptively. Either way results come back index-tagged.
        computed = self.backend.run_cells(
            [(i, cell.scenario, cell.seed) for i, cell in enumerate(cells)],
            self.artifact_level.value,
            chunk_size=self.chunk_size,
        )
        results: List[Optional[RunArtifacts]] = [None] * len(cells)
        for i, artifacts in computed:
            # Workers strip the scenario from the response pickle;
            # restore it from the authoritative cell list.
            artifacts.scenario = cells[i].scenario
            results[i] = artifacts
        return results  # type: ignore[return-value]

    # -- convenience sweeps ---------------------------------------------

    def run_once(self, scenario: Scenario, seed: Optional[int] = None) -> RunArtifacts:
        """Run a single cell (API parity with the serial Runner)."""
        actual_seed = self.base_seed if seed is None else seed
        return self.run_cells([Cell(scenario, actual_seed)])[0]

    def run_repetitions(self, scenario: Scenario, repetitions: int = 100) -> List[RunArtifacts]:
        """The paper's repeat-with-distinct-seeds loop (§3), with the
        same ``base_seed + i`` assignment as the serial runner."""
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        cells = [Cell(scenario, self.base_seed + i) for i in range(repetitions)]
        return self.run_cells(cells)

    def run_matrix(
        self, scenarios: Sequence[Scenario], repetitions: int = 100
    ) -> List[List[RunArtifacts]]:
        """Run a whole scenario list in one fan-out.

        Returns one result list per scenario, aligned with the input
        order — the preferred entry point for experiments, since the
        entire matrix shares a single dispatch round."""
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        cells = [
            Cell(scenario, self.base_seed + rep)
            for scenario in scenarios
            for rep in range(repetitions)
        ]
        flat = self.run_cells(cells)
        return [flat[start : start + repetitions] for start in range(0, len(flat), repetitions)]
