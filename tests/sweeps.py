"""Seed sweeps on a caller-owned backend, the way a session runs them.

Fleet and pool tests drive a backend they built themselves (a
``SocketBackend`` with fault-injecting workers, a ``LocalBackend`` they
keep open); :func:`sweep` sends their cells through
:func:`~repro.runtime.workloop.run_work`, the one loop every product
path uses, and never closes the backend.
"""

from typing import List, Sequence, Union

from repro.interop.runner import Scenario
from repro.runtime import RunArtifacts, run_work, work_items


def sweep(
    backend,
    scenarios: Union[Scenario, Sequence[Scenario]],
    repetitions: int = 1,
    base_seed: int = 0,
) -> List[RunArtifacts]:
    """Run ``repetitions`` cells of each scenario (scenario-major) on
    ``backend``, item ``i`` at seed ``base_seed + i``, and return them
    in item order with their scenario reattached. A fleet's chunk size
    is pinned by the ``chunk_cells`` fixture (``tests/conftest.py``)."""
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

    run_work(backend, items, deliver)
    return results
