"""Seed sweeps on a caller-owned backend, the way a session runs them,
and the workers of a test fleet.

Fleet and pool tests drive a backend they built themselves (a
``SocketBackend`` with worker threads or processes, some of them
faulted, a ``LocalBackend`` they keep open); :func:`sweep` sends their
cells through :func:`~repro.runtime.workloop.run_work`, the one loop
every product path uses, and never closes the backend.
"""

import importlib.util
import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import List, Sequence, Union

from repro.interop.runner import Scenario
from repro.runtime import RunArtifacts, SocketBackend, run_work, work_items, worker_main

REPO_ROOT = Path(__file__).resolve().parent.parent
FAULT_WORKER = REPO_ROOT / "scripts" / "fault_worker.py"
_SPEC = importlib.util.spec_from_file_location("fault_worker", FAULT_WORKER)
#: The fault harness, ``scripts/fault_worker.py``, as a module.
fault_worker = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fault_worker)


def start_worker_thread(backend: SocketBackend, **kwargs) -> threading.Thread:
    """A ``worker_main`` thread dialling ``backend``; ``kwargs`` go to
    ``worker_main``."""
    thread = threading.Thread(
        target=worker_main,
        args=(backend.host, backend.port),
        kwargs={"retry_for": 5.0, **kwargs},
        daemon=True,
    )
    thread.start()
    return thread


def spawn_worker_process(backend: SocketBackend, *faults: str) -> subprocess.Popen:
    """A worker process dialling ``backend``: ``repro worker``, or
    ``scripts/fault_worker.py`` given its fault flags (``"--kill-after",
    "0"``)."""
    env = dict(os.environ)
    # these fixtures run auth-less on loopback; an exported
    # REPRO_AUTH_KEY would make the worker demand a handshake
    env.pop("REPRO_AUTH_KEY", None)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if faults:
        command = [str(FAULT_WORKER), *faults]
    else:
        command = ["-m", "repro", "worker"]
    return subprocess.Popen(
        [sys.executable, *command, "--connect", backend.address, "--retry", "30"],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


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
