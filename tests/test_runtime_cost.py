"""What a job costs above the cell, as exact counts.

Wall time on a shared box moves by tens of percent between runs of the
same code; the counts below do not. Each test drives the benchmark's
``service_mix`` request (fig5, fig6, fig7, fig12, fig13 at smoke size:
156 unique cells) through an in-process :class:`ServiceManager` and
counts, by patching, what the durable result cache does for it:

* a warm job in a process that already holds the cells opens no blob,
  decompresses nothing and unpickles nothing; served through the
  daemon, it computes no SHA-256 address, runs each experiment's
  ``to_dict`` once, and its events relay starts no thread; a repeated
  request is not planned again (no ``plan_cells``, no
  ``scenario_key``: the first job's plan, cell keys included, serves);
* a finished daemon job holds its fetch document, not its report or
  its request, so a second fetch renders nothing and ``/v1/health``'s
  ``held_bytes`` is the sum of those documents;
* a warm job's connections leave the cyclic collector asyncio's own
  transport cycle (7 objects each) and nothing of the daemon's;
* ``/v1/health`` walks the store's directory once per process, and its
  job counts snapshot no job, however many have run;
* a fresh process on the same directory reads every cell from disk
  once, then never again;
* a cold job probes, writes one blob and pays one fsync per cell, and
  nothing else fsyncs: the store is the one crash-safe record;
* a run killed after its first observed batch and started again on the
  same directory executes exactly the cells that were not put;
* a suite of simulator cells and wild passes reaches its backend in
  one call, inline, on a pool and on a fleet, and each pass runs in a
  chunk of its own;
* every cell any registered experiment plans has a value identity, so
  crash recovery never has to recompute a cell it already ran.
"""

import contextlib
import gc
import os
import pickle
import threading
import weakref
import zlib
from collections import Counter

import pytest

import repro.runtime.artifacts as artifacts_module
import repro.runtime.backend as backend_module
import repro.runtime.cache as cache_module
import repro.runtime.disk_cache as disk_cache
import repro.runtime.suite as suite_module
from repro.api import LocalConfig, RunRequest, ServiceClient, Session
from repro.api.bundles import bundle_files
from repro.api.jobs import Job, JobExecutor
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import REGISTRY
from repro.experiments.spec import ExperimentSpec
from repro.runtime.artifacts import ArtifactLevel
from repro.runtime.backend import LocalBackend
from repro.runtime.distributed import SocketBackend
from repro.runtime.scheduler import ChunkScheduler
from repro.runtime.suite import SuiteRunner
from repro.runtime.worker import runs_alone
from repro.service import ServiceDaemon
from repro.service.manager import ServiceManager

REQUEST = RunRequest(("fig5", "fig6", "fig7", "fig12", "fig13"), smoke=True)
UNIQUE_CELLS = 156


@pytest.fixture
def counts(monkeypatch):
    """Counters of blob opens, decompressions, unpickles, puts and
    fsyncs, live for the whole test."""
    seen: Counter = Counter()

    def counting(name, real):
        def call(*args, **kwargs):
            seen[name] += 1
            return real(*args, **kwargs)

        return call

    real_open = open

    def opening(path, *args, **kwargs):
        if str(path).endswith(".blob"):
            seen["open"] += 1
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(disk_cache, "open", opening, raising=False)
    monkeypatch.setattr(pickle, "loads", counting("loads", pickle.loads))
    monkeypatch.setattr(
        disk_cache, "decompress_blob", counting("decompress", disk_cache.decompress_blob)
    )
    real_put, real_fsync = disk_cache.DiskResultCache.put, os.fsync
    putting = []

    def put(self, key, artifacts):
        seen["put"] += 1
        putting.append(key)
        try:
            return real_put(self, key, artifacts)
        finally:
            putting.pop()

    def fsync(fd):
        seen["fsync" if putting else "fsync_outside_put"] += 1
        return real_fsync(fd)

    monkeypatch.setattr(disk_cache.DiskResultCache, "put", put)
    monkeypatch.setattr(os, "fsync", fsync)
    return seen


def job(manager, counts):
    """Run one job to completion: ``(counts it caused, summary)``."""
    before = Counter(counts)
    record = manager.submit(REQUEST)
    for _event in manager.event_buffer(record.job_id).subscribe():
        pass
    final = manager.status(record.job_id)
    assert final.status.value == "succeeded", final.error
    return counts - before, final.summary


def test_warm_job_in_a_warm_process_touches_no_blob(tmp_path, counts):
    manager = ServiceManager(workers=0, cache_dir=str(tmp_path / "cache"))
    try:
        cold, summary = job(manager, counts)
        assert (summary["disk_cache_hits"], summary["disk_cache_misses"]) == (0, UNIQUE_CELLS)
        warm, summary = job(manager, counts)
    finally:
        manager.close()
    assert (summary["disk_cache_hits"], summary["disk_cache_misses"]) == (UNIQUE_CELLS, 0)
    assert (warm["open"], warm["loads"], warm["decompress"], warm["put"]) == (0, 0, 0, 0)


@contextlib.contextmanager
def serving(manager):
    """A client of a loopback daemon over ``manager``, closed after."""
    server = ServiceDaemon(manager, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    try:
        yield ServiceClient(server.wait_started(10))
    finally:
        server.stop()
        thread.join(timeout=10)
        manager.close()


def finish(client, request):
    """Submit through the daemon and follow the events to their end."""
    handle = client.submit(request)
    for _event in handle.events():
        pass
    return handle.job_id


def test_warm_job_through_the_daemon_hashes_nothing_renders_once_and_starts_no_thread(
    tmp_path, monkeypatch, cold_plans
):
    manager = ServiceManager(workers=0, cache_dir=str(tmp_path / "cache"))
    seen: Counter = Counter()

    def counting(name, real):
        def call(*args, **kwargs):
            seen[name] += 1
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(disk_cache, "cell_address", counting("address", disk_cache.cell_address))
    monkeypatch.setattr(ExperimentResult, "to_dict", counting("to_dict", ExperimentResult.to_dict))
    monkeypatch.setattr(threading.Thread, "start", counting("thread", threading.Thread.start))
    monkeypatch.setattr(ExperimentSpec, "plan_cells", counting("plan", ExperimentSpec.plan_cells))
    for module in (cache_module, artifacts_module, suite_module):
        monkeypatch.setattr(module, "scenario_key", counting("skey", cache_module.scenario_key))
    with serving(manager) as client:

        def job():
            before = Counter(seen)
            handle = client.submit(REQUEST)
            events = [event.kind for event in handle.events()]
            files = client.fetch(handle.job_id)
            return seen - before, files, events

        cold, cold_files, _events = job()
        warm, warm_files, events = job()
        summary = client.status(client.jobs()[-1].job_id).summary
    assert (summary["disk_cache_hits"], summary["disk_cache_misses"]) == (UNIQUE_CELLS, 0)
    assert warm_files == cold_files and events
    # A cold cell's address is computed for its probe and for its put.
    assert cold["address"] == 2 * UNIQUE_CELLS
    experiments = len(REQUEST.experiments)
    assert cold["plan"] == experiments and cold["skey"] > 0
    assert (warm["address"], warm["to_dict"], warm["thread"]) == (0, experiments, 0)
    assert (warm["plan"], warm["skey"]) == (0, 0)


def test_a_finished_daemon_job_holds_its_fetch_document_and_nothing_it_was_built_from(
    tmp_path, monkeypatch
):
    directory = str(tmp_path / "cache")
    alive = []
    real_run_job = ServiceManager._run_job

    def run_job(self, request, sink):
        report = real_run_job(self, request, sink)
        alive.append((weakref.ref(request), weakref.ref(report)))
        return report

    monkeypatch.setattr(ServiceManager, "_run_job", run_job)
    renders: Counter = Counter()
    real_to_dict = ExperimentResult.to_dict

    def to_dict(result):
        renders["to_dict"] += 1
        return real_to_dict(result)

    monkeypatch.setattr(ExperimentResult, "to_dict", to_dict)
    manager = ServiceManager(workers=0, cache_dir=directory)
    with serving(manager) as client:
        finish(client, REQUEST)  # cold
        job_id = finish(client, REQUEST)
        files = client.fetch(job_id)
        gc.collect()
        assert [(request(), report()) for request, report in alive] == [(None, None)] * 2
        before = renders["to_dict"]
        assert client.fetch(job_id) == files
        assert renders["to_dict"] == before
        held = client.health()["held_bytes"]
        assert held == sum(
            len(zlib.compress(manager.bundle(job.job_id), 1)) for job in client.jobs()
        )
        assert 0 < held <= 2 * 8 * 1024
    with Session(cache_dir=directory) as session:
        assert files == bundle_files(session.run(REQUEST))


#: What one daemon connection leaves to the cyclic collector: asyncio's
#: ``_SelectorSocketTransport`` keeps a bound method of itself in
#: ``_read_ready_cb`` (``set_protocol``, CPython 3.11–3.13), and its
#: ``extra`` dict holds the ``TransportSocket``, the ``socket`` and the
#: peer / local address tuples. The daemon holds none of them.
TRANSPORT_CYCLE = {
    "_SelectorSocketTransport": 1,
    "method": 1,
    "dict": 1,
    "TransportSocket": 1,
    "socket": 1,
    "tuple": 2,
}


def test_a_warm_daemon_job_leaves_only_asyncio_transport_cycles(tmp_path):
    """A warm job is three connections (submit, events, fetch); what
    they leave for the cyclic collector is the standard library's
    transport cycle, never a handler task, frame or job object."""
    jobs = 5
    manager = ServiceManager(workers=0, cache_dir=str(tmp_path / "cache"))
    with serving(manager) as client:
        for _ in range(2):
            client.fetch(finish(client, REQUEST))
        gc.collect()
        gc.disable()
        try:
            for _ in range(jobs):
                client.fetch(finish(client, REQUEST))
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            garbage = Counter(type(thing).__name__ for thing in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
    # One more connection's cycle may be a warm-up job's, closed late.
    connections = 3 * jobs + 1
    assert set(garbage) <= set(TRANSPORT_CYCLE), garbage
    assert sum(garbage.values()) <= connections * sum(TRANSPORT_CYCLE.values()), garbage


SCAN = {
    "source": {"kind": "synthetic", "count": 4000, "seed": 3},
    "shard_size": 1000,
    "vantage_names": ["Hamburg"],
    "days": 1,
}


def test_a_daemon_scan_job_fetches_what_a_session_scan_renders(tmp_path):
    with serving(ServiceManager(workers=0)) as client:
        fetched = client.fetch(finish(client, {"scan": SCAN}))
    with Session() as session:
        assert fetched == {"scan.json": session.scan(SCAN).to_json()}


def test_health_walks_the_store_once_per_process(tmp_path, monkeypatch):
    directory = str(tmp_path / "cache")
    first = ServiceManager(workers=0, cache_dir=directory)
    try:
        job(first, Counter())
    finally:
        first.close()
    listed = []
    real_listdir = os.listdir
    monkeypatch.setattr(os, "listdir", lambda path: listed.append(path) or real_listdir(path))
    restarted = ServiceManager(workers=0, cache_dir=directory)
    try:
        assert restarted.health()["cache"]["entries"] == UNIQUE_CELLS
        walked = len(listed)
        assert walked > 1
        for _ in range(20):
            assert restarted.health()["cache"]["entries"] == UNIQUE_CELLS
        # New blobs this process writes are counted as they land.
        overrides = {exp: {"base_seed": 1_000_000} for exp in REQUEST.experiments}
        cold = RunRequest(REQUEST.experiments, overrides=overrides, smoke=True)
        record = restarted.submit(cold)
        for _event in restarted.event_buffer(record.job_id).subscribe():
            pass
        assert restarted.health()["cache"]["entries"] == 2 * UNIQUE_CELLS
    finally:
        restarted.close()
    assert len(listed) == walked
    assert len(disk_cache.DiskResultCache(directory)) == 2 * UNIQUE_CELLS


@pytest.mark.parametrize("jobs", [1, 200])
def test_health_job_counts_snapshot_no_job(jobs, monkeypatch):
    executor = JobExecutor(lambda request, sink: None, workers=1)
    try:
        done = [executor.submit(i) for i in range(jobs)]
        assert all(job.done.wait(10) for job in done)
        snapshots = Counter()
        real_snapshot = Job.snapshot
        monkeypatch.setattr(
            Job, "snapshot", lambda job: snapshots.update(["snapshot"]) or real_snapshot(job)
        )
        assert executor.counts()["succeeded"] == jobs
    finally:
        executor.shutdown()
    assert snapshots["snapshot"] == 0


def test_cold_job_writes_and_fsyncs_once_per_cell(tmp_path, counts):
    manager = ServiceManager(workers=0, cache_dir=str(tmp_path / "cache"))
    try:
        cold, _summary = job(manager, counts)
    finally:
        manager.close()
    assert (cold["put"], cold["fsync"]) == (UNIQUE_CELLS, UNIQUE_CELLS)
    assert cold["fsync_outside_put"] == 0
    # Each cell is probed on disk once (absent) before it runs.
    assert (cold["open"], cold["loads"], cold["decompress"]) == (UNIQUE_CELLS, 0, 0)


def test_fresh_process_reads_each_cell_from_disk_once(tmp_path, counts):
    directory = str(tmp_path / "cache")
    first = ServiceManager(workers=0, cache_dir=directory)
    try:
        job(first, counts)
    finally:
        first.close()
    restarted = ServiceManager(workers=0, cache_dir=directory)
    try:
        reread, summary = job(restarted, counts)
        assert (summary["disk_cache_hits"], summary["disk_cache_misses"]) == (UNIQUE_CELLS, 0)
        again, summary = job(restarted, counts)
        health = restarted.health()["cache"]
    finally:
        restarted.close()
    assert (reread["open"], reread["loads"], reread["decompress"]) == (UNIQUE_CELLS,) * 3
    assert reread["put"] == 0
    assert (again["open"], again["loads"], again["decompress"]) == (0, 0, 0)
    assert (summary["disk_cache_hits"], summary["disk_cache_misses"]) == (UNIQUE_CELLS, 0)
    assert health["hits"] == 2 * UNIQUE_CELLS and health["entries"] == UNIQUE_CELLS
    memory = health["memory"]
    assert (memory["hits"], memory["misses"], memory["entries"]) == (
        UNIQUE_CELLS,
        UNIQUE_CELLS,
        UNIQUE_CELLS,
    )
    assert memory["bytes"] == sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(directory)
        for name in names
    )


#: The inline backend observes every 32 cells and at each chunk end.
FIRST_BATCH = 32


def test_a_run_killed_after_its_first_batch_executes_only_what_was_not_put(
    tmp_path, counts, monkeypatch
):
    directory = str(tmp_path / "cache")
    real_observe = LocalBackend.observe_results

    def killed_after_the_first_batch(self, results):
        real_observe(self, results)
        raise KeyboardInterrupt("killed")

    monkeypatch.setattr(LocalBackend, "observe_results", killed_after_the_first_batch)
    with Session(LocalConfig(workers=0), cache_dir=directory) as session:
        with pytest.raises(KeyboardInterrupt):
            session.run(REQUEST)
    monkeypatch.setattr(LocalBackend, "observe_results", real_observe)
    assert (counts["put"], counts["fsync"]) == (FIRST_BATCH, FIRST_BATCH)
    assert len(disk_cache.DiskResultCache(directory)) == FIRST_BATCH

    executed = []
    real_execute = backend_module.execute_cell
    monkeypatch.setattr(
        backend_module,
        "execute_cell",
        lambda *args, **kwargs: executed.append(args) or real_execute(*args, **kwargs),
    )
    before = Counter(counts)
    with Session(LocalConfig(workers=0), cache_dir=directory) as session:
        restarted = session.run(REQUEST)
    rerun = counts - before
    # 156 unique cells, 32 put before the kill: 124 executed and put.
    assert len(executed) == UNIQUE_CELLS - FIRST_BATCH == 124
    assert (rerun["put"], rerun["fsync"]) == (124, 124)
    assert (restarted.extra["disk_cache_hits"], restarted.extra["disk_cache_misses"]) == (32, 124)


#: fig6's simulator cells beside fig15's study passes.
MIXED = RunRequest(("fig6", "fig15"), smoke=True)


@pytest.mark.parametrize("where", ["inline", "pool", "fleet"])
def test_a_suite_reaches_its_backend_in_one_call_and_each_pass_runs_alone(where, monkeypatch):
    """One ``run_cells`` call carries every unique cell, passes
    included; of the chunks the backend carves from it, each that holds
    a pass holds nothing else."""
    from test_observe import fleet_session

    entered, chunks = [], []
    backend_class = SocketBackend if where == "fleet" else LocalBackend
    real_run_cells = backend_class.run_cells

    def counting_run_cells(self, cells):
        entered.append(len(cells))
        return real_run_cells(self, cells)

    monkeypatch.setattr(backend_class, "run_cells", counting_run_cells)
    if where == "fleet":
        real_assign = ChunkScheduler.assign

        def assign(self, wid, now):
            assignment = real_assign(self, wid, now)
            if assignment is not None:
                chunks.append(assignment.chunk)
            return assignment

        monkeypatch.setattr(ChunkScheduler, "assign", assign)
        session = fleet_session(workers=2)
    else:
        real_run_chunks = LocalBackend.run_chunks

        def run_chunks(self, grouped):
            chunks.extend(grouped)
            return real_run_chunks(self, grouped)

        monkeypatch.setattr(LocalBackend, "run_chunks", run_chunks)
        session = Session(LocalConfig(workers=0 if where == "inline" else 2))
    with session:
        passes = sum(runs_alone(cell.scenario) for cell in session.plan(MIXED).dispatch_cells)
        report = session.run(MIXED)
    assert passes >= 1
    assert entered == [report.executed_cells]
    tasks = [[task for task, pairs in chunk for _ in pairs] for chunk in chunks]
    assert sum(map(len, tasks)) == report.executed_cells
    alone = [chunk for chunk in tasks if any(map(runs_alone, chunk))]
    assert len(alone) == passes and all(len(chunk) == 1 for chunk in alone)


@pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "paper"])
def test_every_planned_cell_has_a_value_identity(smoke):
    """Cells without one (a user-written ``LossPattern`` subclass) are
    recomputed after a crash; no registered experiment plans one."""
    plan = SuiteRunner().plan([spec.id for spec in REGISTRY.specs()], smoke=smoke)
    assert plan.dispatch_cells
    unkeyed = [
        cell
        for cell in plan.dispatch_cells
        if disk_cache.cell_fingerprint(cell.scenario, cell.seed, ArtifactLevel.STATS) is None
    ]
    assert unkeyed == []
