"""The durable content-addressed result cache
(:mod:`repro.runtime.disk_cache`) and its SuiteRunner integration:
warm starts must survive process restarts with byte-identical
bundles."""

import os
import pickle

from repro.api import RunRequest, Session
from repro.api.bundles import bundle_files
from repro.interop.runner import Scenario
from repro.runtime.artifacts import ArtifactLevel
from repro.runtime.disk_cache import (
    CELL_CODE_VERSION,
    DiskResultCache,
    cell_fingerprint,
)
from repro.runtime.matrix import MatrixRunner
from repro.sim.loss import LossPattern


def _artifacts(scenario, seed=0, level="stats"):
    with MatrixRunner(artifact_level=level) as runner:
        return runner.run_once(scenario, seed)


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
    import repro.runtime.disk_cache as disk_cache

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
    assert cache.fingerprint(scenario, 0, ArtifactLevel.STATS) is None
    assert cache.uncacheable == 1


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


def test_miss_paths_never_raise(tmp_path):
    cache = DiskResultCache(str(tmp_path))
    assert cache.get(None) is None
    assert cache.get("ab" * 32) is None
    assert cache.misses == 1  # None key is not even a lookup


def test_corrupt_entries_are_dropped_as_misses(tmp_path):
    cache = DiskResultCache(str(tmp_path))
    scenario = Scenario(rtt_ms=9.0)
    key = cache.fingerprint(scenario, 0, ArtifactLevel.STATS)
    cache.put(key, _artifacts(scenario))
    path = cache._path(key)
    with open(path, "wb") as fh:
        fh.write(b"not a blob at all")
    assert cache.get(key) is None
    assert not os.path.exists(path)  # dropped, will be recomputed
    assert cache.misses == 1


def test_full_level_artifacts_are_never_stored(tmp_path):
    cache = DiskResultCache(str(tmp_path))
    scenario = Scenario(rtt_ms=9.0)
    artifacts = _artifacts(scenario, level="full")
    key = cache.fingerprint(scenario, 0, ArtifactLevel.FULL)
    cache.put(key, artifacts)
    assert len(cache) == 0


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
