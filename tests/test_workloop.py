"""One backend per session, one work loop.

:func:`repro.runtime.workloop.run_work` is the only code that decides
how a list of keyed work items (a suite's cells, a scan's shards) is
executed against a backend and the result store. What must hold: any
mix of stored / fresh / uncacheable items, simulator cells and task
cells, is delivered exactly once with serial-reference values, each
task cell in a chunk of its own, and every keyed item is in the store by
the time its batch has been observed, before the backend returns;
accounting is per call (two runs sharing one cache do not see each
other's hits); whatever observer and sink a backend carried before a
call are back afterwards; and the structure stays one owner, one loop.
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_observe import fleet_session

import repro.runtime.backend as backend_module
from repro.api import DistributedConfig, LocalConfig, RunRequest, Session
from repro.interop.runner import SIZE_10KB, Scenario
from repro.quic.server import ServerMode
from repro.runtime import worker_main
from repro.runtime.artifacts import ArtifactLevel, RunArtifacts, execute_cell
from repro.runtime.backend import LocalBackend
from repro.runtime.disk_cache import DiskResultCache, cell_fingerprint
from repro.runtime.events import ChunkDispatched, WorkerJoined
from repro.runtime.worker import run_cell_chunk
from repro.runtime.workloop import LEVEL, run_work, work_items
from repro.service import ServiceManager
from repro.wild.stream import ScanRequest, scan_fingerprint

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

SCAN = {
    "source": {"kind": "synthetic", "count": 6000, "seed": 3},
    "shard_size": 1000,
    "vantage_names": ("Hamburg",),
    "days": 1,
}


# -- the loop itself, against a fake backend -----------------------------


@dataclass(frozen=True)
class Square:
    """A task cell: deterministic in ``(value, seed)``, optionally
    without value identity (``task_key() is None``: never cached)."""

    value: int
    keyed: bool = True

    def task_key(self):
        return ("square", self.value) if self.keyed else None

    def execute_task(self, seed, level, runner=None):
        return RunArtifacts(None, seed, level, None, None, float(self.value**2 + seed))


#: The simulator cell of the mixed lists: item ``i`` runs it at seed ``i``.
SCENARIO = Scenario(
    client="quic-go", mode=ServerMode.IACK, http="h1", rtt_ms=9.0, response_size=SIZE_10KB
)


class InlineBackend(LocalBackend):
    """A 2-slot local backend (its carve: ⌈n/4⌉ simulator cells a chunk,
    a chunk of its own for each task) that runs its chunks in the
    caller, recording each and observing it like a real backend;
    ``probe`` (if set) is called once all chunks were observed, before
    the results are returned."""

    def __init__(self):
        super().__init__(workers=2)
        self.chunks = []
        self.probe = None
        self.probed = []

    def run_chunks(self, chunks):
        out = []
        for chunk in chunks:
            results = run_cell_chunk(chunk, LEVEL.value)
            self.chunks.append([task for task, pairs in chunk for _ in pairs])
            self.observe_results(results)
            out.extend(results)
        if self.probe is not None:
            self.probed.append(self.probe())
        return out[::-1]  # completion order is nobody's contract


_REFERENCE = {}


def reference_value(task, seed):
    """What a serial run of the cell delivers: scenario-less, as every
    backend delivers it (memoized across examples)."""
    if (task, seed) not in _REFERENCE:
        artifacts = execute_cell(task, seed, ArtifactLevel.STATS)
        artifacts.scenario = None
        _REFERENCE[task, seed] = artifacts
    return _REFERENCE[task, seed]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kinds=st.lists(
        st.sampled_from(
            [
                ("stored", "scenario"),
                ("fresh", "scenario"),
                ("stored", "task"),
                ("fresh", "task"),
                ("uncacheable", "task"),
            ]
        ),
        max_size=12,
    ),
    window=st.one_of(st.none(), st.integers(1, 5)),
)
def test_any_split_is_delivered_once_with_reference_values_and_fully_journaled(kinds, window):
    """Any mix of simulator cells and task cells, stored or not: each
    is delivered once with its serial value, each task ran in a chunk
    of its own, and each keyed one is journaled — put in the store as
    its batch arrives; a "stored" item is what an earlier, killed run
    left there."""
    items = [
        (i, SCENARIO, i) if shape == "scenario" else (i, Square(i, keyed=kind != "uncacheable"), 7)
        for i, (kind, shape) in enumerate(kinds)
    ]
    kinds = [kind for kind, _shape in kinds]
    reference = {i: reference_value(task, seed) for i, task, seed in items}
    with tempfile.TemporaryDirectory() as tmp:
        cache = DiskResultCache(f"{tmp}/cache")
        for (i, task, seed), kind in zip(items, kinds):
            if kind == "stored":
                cache.put(cache.fingerprint(task, seed, ArtifactLevel.STATS), reference[i])

        backend = InlineBackend()
        backend.probe = lambda: len(cache)
        observer, sink = object(), object()
        backend.set_result_observer(observer)
        backend.set_event_sink(sink)
        delivered = []
        restarted = DiskResultCache(f"{tmp}/cache")  # a restarted process's view
        counts = run_work(
            backend,
            work_items(items, restarted),
            lambda index, artifacts, source: delivered.append((index, artifacts, source)),
            cache=restarted,
            window=window,
        )

        assert sorted(index for index, _a, _s in delivered) == list(range(len(items)))
        for index, artifacts, source in delivered:
            assert artifacts == reference[index]
            assert source == ("disk_cache" if kinds[index] == "stored" else "executed")
        assert +counts == +Counter(
            disk_cache=kinds.count("stored"),
            missed=kinds.count("fresh"),
            executed=kinds.count("fresh") + kinds.count("uncacheable"),
        )
        for chunk in backend.chunks:
            assert len(chunk) == 1 or all(isinstance(task, Scenario) for task in chunk)
        assert sum(map(len, backend.chunks)) == counts["executed"]
        # What the owner had attached is back.
        assert backend._result_observer is observer and backend._event_sink is sink
        # Every keyed item is stored, each fresh one before its backend
        # call returned; uncacheable ones never are.
        keyed = kinds.count("stored") + kinds.count("fresh")
        assert len(cache) == keyed
        if backend.probed:
            assert backend.probed[-1] == keyed
        for (i, task, seed), kind in zip(items, kinds):
            if kind != "uncacheable":
                assert cache.get(cache.fingerprint(task, seed, ArtifactLevel.STATS)) == reference[i]


def test_observer_and_sink_are_restored_when_the_backend_raises(tmp_path):
    class Dying(InlineBackend):
        def run_chunks(self, chunks):
            raise RuntimeError("backend died")

    backend = Dying()
    observer, sink = object(), object()
    backend.set_result_observer(observer)
    backend.set_event_sink(sink)
    cache = DiskResultCache(str(tmp_path))
    with pytest.raises(RuntimeError, match="backend died"):
        run_work(
            backend,
            work_items([(0, Square(3), 0)], cache),
            lambda *delivery: None,
            cache=cache,
            sink=lambda event: None,
        )
    assert backend._result_observer is observer and backend._event_sink is sink


# -- identities a parent-written directory depends on --------------------


def test_cell_and_scan_fingerprints_still_name_what_the_parent_wrote():
    """Captured with the src/ of 50d52fe: a cache directory written
    there hits here."""
    scenario = Scenario(
        client="quic-go", mode=ServerMode.IACK, http="h1", rtt_ms=9.0, response_size=SIZE_10KB
    )
    assert cell_fingerprint(scenario, 0, ArtifactLevel.STATS) == (
        "89891c87fe9d0733e3229e125501dc13895e53b34447334957be16398eb4628c"
    )
    assert scan_fingerprint(ScanRequest.from_dict(dict(SCAN))) == (
        "cec09c7b206aba552765c74aa570b37025385ca0f0e61c8eb6901aa2b9bc9942"
    )


# -- accounting is per call, not a delta of a shared counter -------------

PLAN_A = RunRequest(("fig6", "fig7"), smoke=True)
PLAN_B = RunRequest(("fig12",), smoke=True)


@pytest.fixture()
def slow_probes(monkeypatch):
    """Every disk-cache read yields the GIL, so two warm runs started
    together are guaranteed to interleave their probes."""
    real_get = DiskResultCache.get

    def yielding_get(self, key):
        time.sleep(0.0005)
        return real_get(self, key)

    monkeypatch.setattr(DiskResultCache, "get", yielding_get)


def planned_cells(request):
    with Session() as session:
        return len(session.plan(request).unique_cells)


def test_concurrent_sessions_sharing_a_cache_each_report_their_own_hits(tmp_path, slow_probes):
    cache = DiskResultCache(str(tmp_path / "cache"))
    with Session(cache_dir=cache) as warmer:
        warmer.run(PLAN_A)
        warmer.run(PLAN_B)
    start = threading.Barrier(2)
    extras = {}

    def warm_run(name, request):
        with Session(cache_dir=cache) as session:
            start.wait(timeout=30)
            extras[name] = session.run(request).extra

    threads = [
        threading.Thread(target=warm_run, args=("a", PLAN_A)),
        threading.Thread(target=warm_run, args=("b", PLAN_B)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    for name, request in (("a", PLAN_A), ("b", PLAN_B)):
        assert extras[name]["disk_cache_hits"] == planned_cells(request), name
        assert extras[name]["disk_cache_misses"] == 0, name


def test_pooled_service_jobs_each_report_their_own_hits(tmp_path, slow_probes):
    manager = ServiceManager(pool=2, workers=0, cache_dir=str(tmp_path / "cache"))
    try:
        for request in (PLAN_A, PLAN_B):  # cold fills, one after the other
            job_id = manager.submit(request).job_id
            wait_terminal(manager, job_id)
        warm = [(manager.submit(request).job_id, request) for request in (PLAN_A, PLAN_B)]
        for job_id, request in warm:
            summary = wait_terminal(manager, job_id).summary
            assert summary["disk_cache_hits"] == planned_cells(request)
            assert summary["disk_cache_misses"] == 0
    finally:
        manager.close()


def wait_terminal(manager, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = manager.status(job_id)
        if record.status.terminal:
            assert record.error is None, record.error
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached a terminal state")


# -- per-call sinks and observers come off again -------------------------


def chunk_events(events):
    return [event for event in events if isinstance(event, ChunkDispatched)]


@pytest.mark.parametrize("where", ["pool", "fleet"])
def test_a_scan_sink_sees_chunk_events_for_the_call_and_none_after(where):
    session = Session(LocalConfig(workers=2)) if where == "pool" else fleet_session(workers=2)
    with session:
        mine = []
        session.scan(dict(SCAN), on_event=mine.append)
        assert len(chunk_events(mine)) == 6  # one single-shard chunk per shard
        seen = len(mine)
        session.scan(dict(SCAN))
        session.run(RunRequest(("fig6",), smoke=True))
        assert len(mine) == seen


def test_a_session_sink_outlives_a_scan_with_its_own_sink(tmp_path):
    lifetime = []
    session = Session(
        DistributedConfig(listen=0, min_workers=1),
        on_event=lifetime.append,
        cache_dir=str(tmp_path),
    )
    host, port = session.address.rsplit(":", 1)

    def join_worker():
        threading.Thread(
            target=worker_main, args=(host, int(port)), kwargs={"retry_for": 5.0}, daemon=True
        ).start()

    with session:
        backend = session._backend
        observer = backend._result_observer
        join_worker()
        session.scan(dict(SCAN), on_event=lambda event: None)
        assert backend._result_observer is observer  # not clobbered with None
        joined = sum(isinstance(event, WorkerJoined) for event in lifetime)
        assert joined == 1
        join_worker()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if sum(isinstance(event, WorkerJoined) for event in lifetime) == 2:
                break
            time.sleep(0.02)
        else:
            raise AssertionError("the session-lifetime sink no longer hears WorkerJoined")


# -- a pool that lives as long as its session must not outlive it --------


def test_pool_workers_exit_when_their_session_is_sigkilled():
    script = """
import os, signal
from repro.api import LocalConfig, RunRequest, Session
session = Session(LocalConfig(workers=2))
session.run(RunRequest(("fig6",), smoke=True))
print(*[child.pid for child in session._backend._executor._processes.values()], flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == -signal.SIGKILL, done.stderr
    orphans = [int(pid) for pid in done.stdout.split()]
    assert len(orphans) == 2
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and any(os.path.exists(f"/proc/{pid}") for pid in orphans):
        time.sleep(0.1)
    assert not [pid for pid in orphans if os.path.exists(f"/proc/{pid}")]


# -- one owner, one loop, shown structurally -----------------------------


def files_mentioning(pattern):
    regex = re.compile(pattern)
    return sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if regex.search(path.read_text(encoding="utf-8"))
    )


def test_pools_journals_and_probes_have_one_owner_each():
    # One pool constructor: the local backend's. The aggregator-side
    # fan-out and its shared-input channel are gone (wild passes are cells).
    assert files_mentioning(r"\bProcessPoolExecutor\(") == ["runtime/backend.py"]
    assert files_mentioning(r"parallel_map|shared_input|call_task") == []
    # The durability channel is attached (and restored) by the loop only.
    assert files_mentioning(r"\.set_result_observer\(") == ["runtime/workloop.py"]
    # One store: no second, positional journal beside the cache.
    gone = r"SuiteCheckpoint|open_journal|plan_fingerprint|checkpoint_dir|resume=|resumed_shards"
    assert files_mentioning(gone) == []
    # Neither planner probes the cache itself.
    for planner in ("runtime/suite.py", "wild/stream/coordinator.py"):
        text = (SRC / planner).read_text(encoding="utf-8")
        assert not re.search(r"(disk|cache)\.(get|put)\(|\.fingerprint\(", text), planner
    assert files_mentioning(r"_scan_pool|_owned_backend|_run_parallel") == []


def test_a_daemon_builds_one_pool_however_many_wild_jobs_it_serves(tmp_path, monkeypatch):
    """Every all-paper job used to fork two more pools from inside the
    multi-threaded daemon (fig14's and fig15's ``parallel_map``) beside
    the session's own; the passes now run on that one."""
    from test_golden_bundles import PAPER_IDS

    built = []

    class CountingPool(backend_module.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(backend_module, "ProcessPoolExecutor", CountingPool)
    manager = ServiceManager(pool=1, workers=2, cache_dir=str(tmp_path / "cache"))
    try:
        for _ in range(3):
            record = manager.submit({"experiments": list(PAPER_IDS), "smoke": True})
            summary = wait_terminal(manager, record.job_id).summary
        assert (summary["disk_cache_hits"], summary["disk_cache_misses"]) == (204, 0)
    finally:
        manager.close()
    assert len(built) == 1
