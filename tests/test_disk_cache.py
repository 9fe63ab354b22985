"""The durable content-addressed result cache
(:mod:`repro.runtime.disk_cache`) and its SuiteRunner integration:
warm starts must survive process restarts with byte-identical
bundles."""

import json
import os
import pickle
import sys
import threading

import pytest

import repro.runtime.disk_cache as disk_cache
from repro.api import ChunkDispatched, DistributedConfig, LocalConfig, RunRequest, Session
from repro.api.bundles import bundle_files
from repro.interop.runner import Scenario
from repro.runtime import worker_main
from repro.runtime.artifacts import ArtifactLevel, execute_cell
from repro.runtime.disk_cache import (
    CELL_CODE_VERSION,
    DiskResultCache,
    cell_fingerprint,
)
from repro.runtime.wire import compress_blob, decompress_blob
from repro.service.manager import ServiceManager
from repro.sim.loss import LossPattern


def _artifacts(scenario, seed=0, level="stats"):
    return execute_cell(scenario, seed, ArtifactLevel(level))


# -- addressing ---------------------------------------------------------


def test_fingerprint_is_stable_and_distinguishes_every_axis():
    scenario = Scenario(rtt_ms=9.0)
    base = cell_fingerprint(scenario, 0, ArtifactLevel.STATS)
    assert base == cell_fingerprint(Scenario(rtt_ms=9.0), 0, ArtifactLevel.STATS)
    assert base != cell_fingerprint(Scenario(rtt_ms=50.0), 0, ArtifactLevel.STATS)
    assert base != cell_fingerprint(scenario, 1, ArtifactLevel.STATS)
    assert base != cell_fingerprint(scenario, 0, ArtifactLevel.TRACE)


def test_fingerprint_embeds_the_cell_code_version():
    scenario = Scenario(rtt_ms=9.0)
    assert str(CELL_CODE_VERSION)  # the constant exists and is stamped
    one = cell_fingerprint(scenario, 0, ArtifactLevel.STATS)
    # The same cell's address at 523badd (version 1, engine in the
    # hashed tuple): entries written there are cold misses, not hits.
    assert one != "6c22c50be619f5db88f886d042059a95062f0895306559abd4c89e9b9037006f"
    old = disk_cache.CELL_CODE_VERSION
    try:
        disk_cache.CELL_CODE_VERSION = old + 1
        assert cell_fingerprint(scenario, 0, ArtifactLevel.STATS) != one
    finally:
        disk_cache.CELL_CODE_VERSION = old


def test_custom_loss_patterns_are_uncacheable(tmp_path):
    class WeirdLoss(LossPattern):
        def should_drop(self, index, size):
            return False

    scenario = Scenario(rtt_ms=9.0, server_to_client_loss=WeirdLoss())
    assert cell_fingerprint(scenario, 0, ArtifactLevel.STATS) is None
    cache = DiskResultCache(str(tmp_path))
    key = cache.fingerprint(scenario, 0, ArtifactLevel.STATS)
    assert key is None
    # Counted where it is looked up, as the memory tier counts it.
    assert cache.get(key) is None
    assert (cache.uncacheable, cache.misses) == (1, 0)


# -- store semantics ----------------------------------------------------


def test_put_get_round_trip_strips_and_restores_nothing_it_should_not(tmp_path):
    cache = DiskResultCache(str(tmp_path))
    scenario = Scenario(rtt_ms=9.0)
    artifacts = _artifacts(scenario)
    key = cache.fingerprint(scenario, 0, ArtifactLevel.STATS)
    cache.put(key, artifacts)
    assert len(cache) == 1
    cached = cache.get(key)
    assert cached is not None
    assert cached.scenario is None  # stripped like the wire
    assert cached.seed == artifacts.seed
    assert cached.duration_ms == artifacts.duration_ms
    assert cached.ttfb_ms == artifacts.ttfb_ms
    assert cache.stats()["hits"] == 1


def _absent(cache):
    """The key of a cell no test here stores."""
    return cache.fingerprint(Scenario(rtt_ms=77.0), 0, ArtifactLevel.STATS)


def test_miss_paths_never_raise(tmp_path):
    cache = DiskResultCache(str(tmp_path))
    assert cache.get(None) is None
    assert cache.get(_absent(cache)) is None
    assert cache.misses == 1  # None key is not even a lookup


def _damage(path, data=b"not a blob at all"):
    with open(path, "wb") as fh:
        fh.write(data)


def test_corrupt_blob_is_a_removed_miss_for_a_fresh_instance(tmp_path):
    """A restarted process reads every entry from disk, so damage is
    detected there: the blob is removed, the lookup is a miss, and the
    memory tier holds nothing it did not decode."""
    scenario = Scenario(rtt_ms=9.0)
    writer = DiskResultCache(str(tmp_path))
    key = writer.fingerprint(scenario, 0, ArtifactLevel.STATS)
    path = writer._path(key)
    for damage in (b"not a blob at all", b""):
        writer.put(key, _artifacts(scenario))
        _damage(path, damage)
        fresh = DiskResultCache(str(tmp_path))
        assert fresh.get(key) is None
        assert not os.path.exists(path)  # dropped, will be recomputed
        assert (fresh.hits, fresh.misses) == (0, 1)
        assert fresh.stats()["memory"]["entries"] == 0


def test_blob_of_the_wrong_type_is_a_removed_miss(tmp_path):
    cache = DiskResultCache(str(tmp_path))
    key = cache.fingerprint(Scenario(rtt_ms=9.0), 0, ArtifactLevel.STATS)
    os.makedirs(os.path.dirname(cache._path(key)))
    _damage(cache._path(key), compress_blob(pickle.dumps({"not": "artifacts"})))
    assert cache.get(key) is None
    assert not os.path.exists(cache._path(key))
    assert cache.misses == 1 and len(cache.memory) == 0


def test_corrupt_blob_is_a_removed_miss_once_evicted(tmp_path, monkeypatch):
    """An entry the memory tier evicted is read from disk again, and
    that read checks it."""
    import repro.runtime.cache as memory_tier

    cache = DiskResultCache(str(tmp_path))
    first, second = Scenario(rtt_ms=9.0), Scenario(rtt_ms=50.0)
    key = cache.fingerprint(first, 0, ArtifactLevel.STATS)
    other = cache.fingerprint(second, 0, ArtifactLevel.STATS)
    cache.put(key, _artifacts(first))
    cache.put(other, _artifacts(second))
    # Room for the second blob only: rewriting it evicts the first.
    monkeypatch.setattr(memory_tier, "MAX_HELD_BYTES", cache.memory._store[other][1])
    cache.put(other, _artifacts(second))
    assert list(cache.memory._store) == [other]
    _damage(cache._path(key))
    assert cache.get(key) is None
    assert not os.path.exists(cache._path(key))
    assert cache.misses == 1


def test_memory_tier_serves_what_this_process_wrote(tmp_path, monkeypatch):
    """A value this process wrote and still holds is served without a
    disk read: cells are deterministic, so it is the right answer even
    if the blob was damaged since."""
    cache = DiskResultCache(str(tmp_path))
    scenario = Scenario(rtt_ms=9.0)
    artifacts = _artifacts(scenario)
    key = cache.fingerprint(scenario, 0, ArtifactLevel.STATS)
    cache.put(key, artifacts)
    _damage(cache._path(key))

    def no_disk(*args, **kwargs):
        raise AssertionError("a held entry must not open its blob")

    monkeypatch.setattr("builtins.open", no_disk)
    served = cache.get(key)
    monkeypatch.undo()
    assert served.client_stats == artifacts.client_stats
    assert (cache.hits, cache.misses) == (1, 0)
    assert cache.stats()["memory"]["hits"] == 1


def test_every_hit_is_a_fresh_copy(tmp_path):
    """The caller reattaches its scenario to what ``get`` returns; that
    must never reach the held entry, from either tier."""
    scenario = Scenario(rtt_ms=9.0)
    writer = DiskResultCache(str(tmp_path))
    key = writer.fingerprint(scenario, 0, ArtifactLevel.STATS)
    writer.put(key, _artifacts(scenario))
    for cache in (writer, DiskResultCache(str(tmp_path))):  # held from put / from a read
        one = cache.get(key)
        one.scenario = scenario
        two = cache.get(key)
        assert two is not one and two.scenario is None


def test_hit_and_miss_counts_hold_under_threads(tmp_path):
    """A daemon's pool threads share one instance: no lookup is lost
    from ``hits`` / ``misses``."""
    scenario = Scenario(rtt_ms=9.0)
    cache = DiskResultCache(str(tmp_path))
    key = cache.fingerprint(scenario, 0, ArtifactLevel.STATS)
    cache.put(key, _artifacts(scenario))

    absent = _absent(cache)
    start = threading.Barrier(4)

    def hammer():
        start.wait(timeout=30)
        for i in range(1500):
            cache.get(key if i % 3 else absent)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert (cache.hits, cache.misses) == (4000, 2000)


def test_stats_report_both_tiers(tmp_path):
    scenario = Scenario(rtt_ms=9.0)
    writer = DiskResultCache(str(tmp_path))
    writer.put(writer.fingerprint(scenario, 0, ArtifactLevel.STATS), _artifacts(scenario))
    cache = DiskResultCache(str(tmp_path))
    key = cache.fingerprint(scenario, 0, ArtifactLevel.STATS)
    cache.get(key)  # from disk
    cache.get(key)  # from memory
    cache.get(_absent(cache))
    stats = cache.stats()
    blob_bytes = os.path.getsize(cache._path(key))
    assert stats == {
        "hits": 2,
        "misses": 1,
        "uncacheable": 0,
        "entries": 1,
        "memory": {"hits": 1, "misses": 2, "uncacheable": 0, "entries": 1, "bytes": blob_bytes},
    }


def test_full_level_artifacts_are_never_stored(tmp_path):
    cache = DiskResultCache(str(tmp_path))
    scenario = Scenario(rtt_ms=9.0)
    artifacts = _artifacts(scenario, level="full")
    key = cache.fingerprint(scenario, 0, ArtifactLevel.FULL)
    cache.put(key, artifacts)
    assert len(cache) == 0


def test_two_writers_of_one_key_never_share_a_temp_file(tmp_path, monkeypatch, caplog):
    """Writer A has written and fsynced its temp file when writer B of
    the same key (another pool or fleet thread) opens its own, and B
    writes only once A's entry is published and read. Had both used one
    temp name, B's open would truncate A's bytes: A would publish an
    empty entry, the reader would drop it as corrupt, and B's
    ``os.replace`` would fail with "write failed"."""
    scenario = Scenario(rtt_ms=9.0)
    artifacts = _artifacts(scenario)
    cache = DiskResultCache(str(tmp_path))
    key = cache.fingerprint(scenario, 0, ArtifactLevel.STATS)
    a_wrote, b_opened, a_read = threading.Event(), threading.Event(), threading.Event()
    writers = {}
    real_open, real_fsync = open, os.fsync

    def opening(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if writers.get("b") == threading.get_ident():
            b_opened.set()
            assert a_read.wait(10)
        return fh

    def fsyncing(fd):
        if writers.get("a") == threading.get_ident():
            a_wrote.set()
            b_opened.wait(10)
        return real_fsync(fd)

    def put(name):
        writers[name] = threading.get_ident()
        cache.put(key, artifacts)

    monkeypatch.setattr(disk_cache, "open", opening, raising=False)
    monkeypatch.setattr(os, "fsync", fsyncing)
    a = threading.Thread(target=put, args=("a",))
    b = threading.Thread(target=put, args=("b",))
    a.start()
    assert a_wrote.wait(10)
    b.start()
    a.join(timeout=10)
    served = DiskResultCache(str(tmp_path)).get(key)  # a reader between the writes
    a_read.set()
    b.join(timeout=10)
    assert not a.is_alive() and not b.is_alive()
    assert served is not None and served.client_stats == artifacts.client_stats
    assert not [r for r in caplog.records if "write failed" in r.getMessage()]
    again = DiskResultCache(str(tmp_path)).get(key)
    assert again is not None and again.client_stats == artifacts.client_stats
    shard = os.path.dirname(cache._path(key))
    assert not [name for name in os.listdir(shard) if name.endswith(".tmp")]


def test_writes_are_atomic_no_tmp_left_behind(tmp_path):
    cache = DiskResultCache(str(tmp_path))
    scenario = Scenario(rtt_ms=9.0)
    key = cache.fingerprint(scenario, 0, ArtifactLevel.STATS)
    cache.put(key, _artifacts(scenario))
    leftovers = [
        name
        for _, _, names in os.walk(tmp_path)
        for name in names
        if name.endswith(".tmp")
    ]
    assert leftovers == []


# -- suite integration --------------------------------------------------


def test_session_cache_dir_replays_with_byte_identical_bundle(tmp_path):
    request = RunRequest("fig6", smoke=True)
    cache_dir = str(tmp_path / "cache")

    with Session(cache_dir=cache_dir) as session:
        cold = session.run(request)
    assert cold.extra["disk_cache_misses"] > 0
    assert cold.extra["disk_cache_hits"] == 0

    # A brand-new session (fresh process in spirit) on the same
    # directory must replay every cell and render identical bytes.
    with Session(cache_dir=cache_dir) as session:
        warm = session.run(request)
    assert warm.extra["disk_cache_hits"] == cold.extra["disk_cache_misses"]
    assert warm.extra["disk_cache_misses"] == 0
    assert bundle_files(warm) == bundle_files(cold)


def test_cache_shared_between_sessions_object_form(tmp_path):
    cache = DiskResultCache(str(tmp_path / "cache"))
    with Session(cache_dir=cache) as session:
        session.run(RunRequest("fig6", smoke=True))
    with Session(cache_dir=cache) as session:
        warm = session.run(RunRequest("fig6", smoke=True))
    assert warm.extra["disk_cache_misses"] == 0
    assert cache.hits > 0


@pytest.mark.parametrize("workers", [0, 2])
def test_repeated_sweep_is_served_from_the_session_store(tmp_path, workers):
    scenario = Scenario(client="quic-go", rtt_ms=9.0)
    with Session(LocalConfig(workers=0)) as session:
        reference = session.run_repetitions(scenario, 4, base_seed=3)
    events = []
    with Session(
        LocalConfig(workers=workers), cache_dir=str(tmp_path / "cache"), on_event=events.append
    ) as session:
        cold = session.run_repetitions(scenario, 4, base_seed=3)
        assert len(session.disk_cache) == 4
        executed = len(events)
        assert executed > 0
        warm = session.run_repetitions(scenario, 4, base_seed=3)
    assert events[executed:] == []  # no CellCompleted, no chunk events
    assert session.disk_cache.hits == 4
    stats = [[r.client_stats for r in run] for run in (reference, cold, warm)]
    assert stats[0] == stats[1] == stats[2]
    assert [r.seed for r in warm] == [3, 4, 5, 6]
    assert all(r.scenario is scenario for r in warm)


def test_repeated_suite_on_a_fleet_is_served_from_the_session_store(tmp_path):
    """A fleet worker keeps no results, so the coordinator's store is
    what serves a repeated suite: the second run dispatches no chunk
    and writes the cold run's bundle."""
    events = []
    with Session(
        DistributedConfig(listen=0, min_workers=1),
        cache_dir=str(tmp_path / "cache"),
        on_event=events.append,
    ) as session:
        host, port = session.address.rsplit(":", 1)
        threading.Thread(
            target=worker_main, args=(host, int(port)), kwargs={"retry_for": 5.0}, daemon=True
        ).start()
        cold = session.run(RunRequest("fig6", smoke=True))
        dispatched = [e for e in events if isinstance(e, ChunkDispatched)]
        assert dispatched
        warm = session.run(RunRequest("fig6", smoke=True))
    assert [e for e in events if isinstance(e, ChunkDispatched)] == dispatched
    assert warm.extra["disk_cache_hits"] == cold.extra["disk_cache_misses"] > 0
    assert warm.extra["disk_cache_misses"] == 0
    assert bundle_files(warm) == bundle_files(cold)


def test_trace_cells_never_reach_the_session_store(tmp_path):
    scenario = Scenario(client="quic-go", rtt_ms=9.0)
    with Session(cache_dir=str(tmp_path / "cache")) as session:
        artifacts = session.run_once(scenario, seed=1, artifact_level="trace")
        assert artifacts.trace_records
        assert len(session.disk_cache) == 0
        assert session.disk_cache.stats()["memory"]["entries"] == 0


# -- a hit is never shared mutable state --------------------------------


def _held(cache):
    """Every value the memory tier holds, pickled: ``key → bytes``."""
    return {
        key: pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        for key, (value, _size) in cache.memory._store.items()
    }


def test_warm_runs_of_every_experiment_leave_held_entries_untouched(tmp_path):
    """Stats cells, the observed cells of fig11 / fig16 / table4 (whose
    ``observed`` dicts ``aggregate`` reads) and the wild pass outcomes:
    after a cold run each held value still pickles to the blob it wrote,
    and two warm runs served from memory change none of them."""
    cache = DiskResultCache(str(tmp_path / "cache"))
    request = RunRequest("all", smoke=True)
    with Session(LocalConfig(workers=0), cache_dir=cache) as session:
        cold = session.run(request)
        held = _held(cache)
        assert len(held) == cold.extra["disk_cache_misses"] == len(cache)
        for key, pickled in held.items():
            with open(cache._path(key), "rb") as fh:
                assert decompress_blob(fh.read()) == pickled, key
        for _ in range(2):
            warm = session.run(request)
            assert (warm.extra["disk_cache_hits"], warm.extra["disk_cache_misses"]) == (
                len(held),
                0,
            )
            assert bundle_files(warm) == bundle_files(cold)
    assert cache.stats()["memory"]["hits"] == 2 * len(held)
    assert _held(cache) == held


def test_concurrent_identical_service_jobs_fetch_identical_bundles(tmp_path):
    """Two pool threads serving the same cells at once, cold and then
    warm, share one memory tier and fetch byte-identical bundles."""
    manager = ServiceManager(pool=2, workers=0, cache_dir=str(tmp_path / "cache"))
    request = RunRequest(("fig6", "fig12", "fig16", "table4"), smoke=True)
    try:
        bundles = []
        for _round in ("cold", "warm"):
            records = [manager.submit(request) for _ in range(2)]
            for record in records:
                for _event in manager.event_buffer(record.job_id).subscribe():
                    pass
                bundles.append(json.loads(manager.bundle(record.job_id))["files"])
        assert manager.cache.stats()["memory"]["hits"] > 0
    finally:
        manager.close()
    assert all(files == bundles[0] for files in bundles[1:])


def test_cached_rescans_render_identically_and_merge_into_fresh_sketches(tmp_path):
    cache = DiskResultCache(str(tmp_path / "cache"))
    request = {
        "source": {"kind": "synthetic", "count": 4000, "seed": 3},
        "shard_size": 1000,
        "vantage_names": ["Hamburg"],
        "days": 1,
    }
    with Session(LocalConfig(workers=0), cache_dir=cache) as session:
        first = session.scan(request)
        held = _held(cache)
        assert len(held) == 4
        second = session.scan(request)
        third = session.scan(request)
    assert (second.executed_shards, second.cached_shards) == (0, 4)
    assert first.to_json() == second.to_json() == third.to_json()
    assert _held(cache) == held
