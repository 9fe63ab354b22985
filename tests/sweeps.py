"""Seed sweeps on a caller-owned backend, the way a session runs them.

Fleet and pool tests drive a backend they built themselves (a
``SocketBackend`` with fault-injecting workers, a ``LocalBackend`` they
keep open); :func:`sweep` sends their cells through
:func:`~repro.runtime.workloop.run_work`, the one loop every product
path uses, and never closes the backend.
"""

from typing import List, Optional, Sequence, Union

from repro.interop.runner import Scenario
from repro.runtime import RunArtifacts, run_work, work_items


def sweep(
    backend,
    scenarios: Union[Scenario, Sequence[Scenario]],
    repetitions: int = 1,
    base_seed: int = 0,
    chunk_size: Optional[int] = None,
) -> List[RunArtifacts]:
    """Run ``repetitions`` cells of each scenario (scenario-major) on
    ``backend``, item ``i`` at seed ``base_seed + i``, and return them
    in item order with their scenario reattached. ``chunk_size`` pins
    fixed slices, as for a suite's passes."""
    if isinstance(scenarios, Scenario):
        scenarios = [scenarios]
    items = work_items(
        (
            (i, scenario, base_seed + i)
            for i, scenario in enumerate(s for s in scenarios for _ in range(repetitions))
        ),
        None,
    )
    results: List[RunArtifacts] = [None] * len(items)

    def deliver(index, artifacts, _source):
        artifacts.scenario = items[index][1]
        results[index] = artifacts

    run_work(backend, items, deliver, chunk_size=chunk_size)
    return results
