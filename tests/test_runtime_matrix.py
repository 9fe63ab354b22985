"""Tests for the parallel experiment runtime.

The load-bearing property is the first test: a session sweep on two
or more workers must return per-seed ``ConnectionStats`` bit-identical
to the serial :meth:`Runner.run_repetitions` path — parallelism,
artifact slimming, and chunking must not perturb a single observable.
"""

import os
import sys
import threading

import pytest

from repro.api import LocalConfig, Session
from repro.errors import InvalidOverride
from repro.interop.runner import Runner, Scenario, SIZE_10KB
from repro.interop.scenarios import (
    first_server_flight_tail_loss,
    second_client_flight_loss,
)
from repro.quic.server import ServerMode
from repro.runtime import (
    ArtifactLevel,
    LocalBackend,
    ResultCache,
    RunArtifacts,
    execute_cell,
    scenario_key,
)
from repro.runtime.cache import cell_cache_key
from repro.sim.loss import LossPattern, RandomLoss
from tests.sweeps import sweep


LOSSY_IACK = Scenario(
    client="quic-go",
    mode=ServerMode.IACK,
    http="h1",
    rtt_ms=9.0,
    response_size=SIZE_10KB,
    server_to_client_loss=first_server_flight_tail_loss(ServerMode.IACK),
)


def test_parallel_stats_bit_identical_to_serial():
    serial = Runner().run_repetitions(LOSSY_IACK, repetitions=8)
    with Session(LocalConfig(workers=2)) as session:
        parallel = session.run_repetitions(LOSSY_IACK, repetitions=8)
    assert len(parallel) == len(serial)
    for expected, actual in zip(serial, parallel):
        assert actual.seed == expected.seed
        assert actual.client_stats == expected.client_stats
        assert actual.server_stats == expected.server_stats
        assert actual.duration_ms == expected.duration_ms
        assert actual.scenario is LOSSY_IACK


def test_parallel_matches_serial_across_pool_widths():
    """A pool slices ⌈n/(2·workers)⌉ cells a chunk: one whole-sweep
    chunk, then 2, 1 and 5 cells."""
    with Session() as session:
        reference = session.run_repetitions(LOSSY_IACK, 20)
    for workers, repetitions in ((2, 1), (2, 6), (3, 6), (2, 20)):
        with LocalBackend(workers=workers) as backend:
            result = sweep(backend, LOSSY_IACK, repetitions)
        assert [r.client_stats for r in result] == [
            r.client_stats for r in reference[:repetitions]
        ]


def test_run_matrix_preserves_scenario_order():
    scenarios = [
        Scenario(client=client, mode=mode, http="h1", rtt_ms=9.0)
        for client in ("quic-go", "aioquic")
        for mode in (ServerMode.WFC, ServerMode.IACK)
    ]
    with LocalBackend(workers=2) as backend:
        flat = sweep(backend, scenarios, repetitions=2)
    assert len(flat) == 2 * len(scenarios)
    for n, scenario in enumerate(scenarios):
        results = flat[2 * n : 2 * n + 2]
        assert [r.seed for r in results] == [2 * n, 2 * n + 1]
        assert all(r.scenario is scenario for r in results)


def test_stats_level_omits_heavy_artifacts():
    with Session() as session:
        artifacts = session.run_once(LOSSY_IACK, artifact_level="stats")
    assert artifacts.level is ArtifactLevel.STATS
    assert artifacts.trace_records is None
    assert artifacts.client_qlog_events is None
    with pytest.raises(ValueError):
        artifacts.tracer  # noqa: B018 - exercising the guard


def test_trace_cell_on_a_pool_session_equals_the_serial_one():
    """Trace cells run in the calling process on every config: a pool
    session's are the serial session's, record for record."""
    with Session() as session:
        serial = session.run_repetitions(LOSSY_IACK, 2, artifact_level="trace")
    with Session(LocalConfig(workers=2)) as session:
        pooled = session.run_repetitions(LOSSY_IACK, 2, artifact_level="trace")
    for expected, art in zip(serial, pooled):
        assert art.level is ArtifactLevel.TRACE and art.scenario is LOSSY_IACK
        assert art.client_stats == expected.client_stats
        assert art.trace_records == expected.trace_records
        assert art.client_qlog_events == expected.client_qlog_events
        assert art.server_qlog_events == expected.server_qlog_events
        dropped = art.tracer.filter(link="server->client", dropped=True)
        assert dropped, "loss scenario must show dropped datagrams"


def _memo_run(cache, scenario, repetitions, level):
    """``repetitions`` seeds of one scenario through ``cache``, keyed
    by :func:`cell_cache_key` as the disk cache's memory tier keys
    them: a hit is served, a miss is executed and stored."""
    level = ArtifactLevel(level)
    out = []
    for seed in range(repetitions):
        key = cell_cache_key(scenario, seed, level)
        artifacts = cache.get(key)
        if artifacts is None:
            artifacts = execute_cell(scenario, seed, level)
            cache.put(key, artifacts)
        out.append(artifacts)
    return out


def test_cache_hits_reuse_results_across_sweeps():
    cache = ResultCache()
    first = _memo_run(cache, LOSSY_IACK, 5, "stats")
    second = _memo_run(cache, LOSSY_IACK, 5, "stats")
    assert cache.hits == 5 and cache.misses == 5
    for a, b in zip(first, second):
        assert a is b  # memoized object, not a recomputation


def test_cache_is_level_scoped():
    cache = ResultCache()
    _memo_run(cache, LOSSY_IACK, 1, "stats")
    [art] = _memo_run(cache, LOSSY_IACK, 1, "trace")
    assert art.trace_records is not None  # stats entry did not leak


def test_cache_skips_unknown_loss_patterns():
    class WeirdLoss(LossPattern):
        def should_drop(self, index, size):
            return False

    scenario = Scenario(client="quic-go", server_to_client_loss=WeirdLoss())
    assert scenario_key(scenario) is None
    cache = ResultCache()
    _memo_run(cache, scenario, 2, "stats")
    _memo_run(cache, scenario, 2, "stats")
    assert cache.hits == 0
    assert len(cache) == 0


def test_cache_eviction_respects_max_entries():
    cache = ResultCache(max_entries=3)
    _memo_run(cache, LOSSY_IACK, 5, "stats")
    assert len(cache) == 3


def test_cache_uncacheable_not_counted_as_miss():
    """get(None) means "the cache cannot apply", not "the cache
    missed" — the two are tracked apart so hit-rate reporting stays
    honest about the cells the memo can actually serve."""
    cache = ResultCache()
    assert cache.get(None) is None
    assert cache.uncacheable == 1 and cache.misses == 0 and cache.hits == 0
    key = ("k",)
    assert cache.get(key) is None  # a real miss
    cache.put(key, "v", 7)
    assert cache.get(key) == "v"
    assert cache.stats() == {"hits": 1, "misses": 1, "uncacheable": 1, "entries": 1, "bytes": 7}
    cache.clear()
    assert cache.stats() == {"hits": 0, "misses": 0, "uncacheable": 0, "entries": 0, "bytes": 0}


def test_cache_overwrite_at_capacity_refreshes_fifo_age():
    """Rewriting a key must renew its eviction age: the refreshed entry
    outlives an older untouched one instead of being dropped first."""
    cache = ResultCache(max_entries=2)
    cache.put(("a",), 1)
    cache.put(("b",), 2)
    cache.put(("a",), 3)  # overwrite at capacity: refresh, evict nothing
    assert len(cache) == 2
    cache.put(("c",), 4)  # evicts b (now the oldest), not the renewed a
    assert cache.get(("a",)) == 3
    assert cache.get(("c",)) == 4
    assert cache.get(("b",)) is None


def test_cache_evicts_least_recently_used():
    """A hit renews an entry: the one evicted is the one read longest
    ago, not the one inserted first."""
    cache = ResultCache(max_entries=2)
    cache.put(("a",), 1)
    cache.put(("b",), 2)
    assert cache.get(("a",)) == 1
    cache.put(("c",), 3)
    assert cache.get(("b",)) is None
    assert cache.get(("a",)) == 1 and cache.get(("c",)) == 3


def test_cache_is_bounded_by_declared_bytes(monkeypatch):
    import repro.runtime.cache as memory_tier

    monkeypatch.setattr(memory_tier, "MAX_HELD_BYTES", 100)
    cache = ResultCache()
    cache.put(("big",), "x", 101)  # larger than the bound: never held
    assert len(cache) == 0 and cache.stats()["bytes"] == 0
    for name in "abcd":
        cache.put((name,), name, 30)
    assert [cache.get((name,)) for name in "abcd"] == [None, "b", "c", "d"]
    assert cache.stats()["bytes"] == 90
    cache.put(("b",), "B", 10)  # an overwrite replaces its size
    assert cache.stats()["bytes"] == 70


def test_cache_accounting_holds_under_threads():
    """Pool threads of one daemon share a cache: no lost count, and the
    byte level matches what is held."""
    cache = ResultCache(max_entries=50)

    start = threading.Barrier(4)

    def hammer(worker):
        start.wait(timeout=30)
        for i in range(2000):
            key = (i % 80,)
            if cache.get(key) is None:
                cache.put(key, worker, 3)

    threads = [threading.Thread(target=hammer, args=(n,)) for n in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == 8000
    assert stats["entries"] == 50 and stats["bytes"] == 150


def test_shared_loss_pattern_not_mutated_across_runs():
    """Regression for the shared-loss-pattern hazard: run_once used to
    reset() the scenario's pattern in place, coupling repetitions."""
    pattern = RandomLoss(rate=0.3, seed=7)
    state_before = pattern._rng.getstate()
    scenario = Scenario(client="quic-go", server_to_client_loss=pattern)
    Runner().run_once(scenario, seed=0)
    assert pattern._rng.getstate() == state_before


def test_random_loss_repetitions_are_reproducible():
    pattern = RandomLoss(rate=0.05, seed=3)
    scenario = Scenario(client="quic-go", server_to_client_loss=pattern)
    first = Runner().run_repetitions(scenario, 4)
    second = Runner().run_repetitions(scenario, 4)
    assert [r.client_stats for r in first] == [r.client_stats for r in second]


def test_repetition_validation():
    with Session() as session:
        with pytest.raises(ValueError):
            session.run_repetitions(LOSSY_IACK, repetitions=0)


@pytest.mark.parametrize(
    "call, args",
    [
        ("run_once", ("quic-go",)),
        ("run_repetitions", ("quic-go", 2)),
        ("run_repetitions", (LOSSY_IACK, "3")),
        ("run_repetitions", (LOSSY_IACK, 2.5)),
        ("run_repetitions", (LOSSY_IACK, 0)),
        ("run_repetitions", (LOSSY_IACK, True)),
        ("run_once", (LOSSY_IACK, 1.5)),
        ("run_once", (LOSSY_IACK, True)),
        ("run_repetitions", (LOSSY_IACK, 2, "0")),
        ("run_once", (LOSSY_IACK, 0, "everything")),
        ("run_repetitions", (LOSSY_IACK, 2, 0, "everything")),
    ],
)
def test_single_cell_input_errors_are_typed_and_raised_before_any_work(call, args):
    events = []
    with Session(LocalConfig(workers=0), on_event=events.append) as session:
        with pytest.raises(InvalidOverride):
            getattr(session, call)(*args)
    assert events == []


def test_run_cells_mixed_scenarios():
    other = Scenario(
        client="neqo",
        mode=ServerMode.WFC,
        http="h1",
        rtt_ms=9.0,
        client_to_server_loss=second_client_flight_loss("neqo"),
    )
    # ⌈5/4⌉ = 2 cells a chunk: the first two chunks mix the scenarios.
    with LocalBackend(workers=2) as backend:
        results = sweep(backend, [LOSSY_IACK, other, LOSSY_IACK, other, LOSSY_IACK])
    assert [r.seed for r in results] == [0, 1, 2, 3, 4]
    assert results[1].scenario is other and results[3].scenario is other


def test_artifacts_expose_runresult_observables():
    serial = Runner().run_once(LOSSY_IACK, seed=0)
    with Session(LocalConfig(workers=2)) as session:
        art = session.run_once(LOSSY_IACK, seed=0, artifact_level="stats")
    assert isinstance(art, RunArtifacts)
    assert art.response_ttfb_ms == serial.response_ttfb_ms
    assert art.ttfb_ms == serial.ttfb_ms
    assert art.completed == serial.completed
    assert art.first_pto_ms == serial.first_pto_ms


def test_workers_none_resolves_to_default():
    backend = LocalConfig(workers=None).create()
    assert backend.workers == min(8, os.cpu_count() or 1)
    backend.close()
