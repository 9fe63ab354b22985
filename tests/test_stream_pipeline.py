"""The streaming wild-scan pipeline end to end.

What must hold: target sources stream lazily and deterministically,
summaries are independent of sharding geometry, a scan killed and
started again on its cache renders a byte-identical summary, the disk
cache serves unchanged shards, and the streamed engine reproduces table1's in-memory numbers
exactly (analytic engine).
"""

import json

import pytest

import repro.api as api
from repro.errors import InvalidOverride
from repro.experiments.registry import get_spec
from repro.runtime.backend import LocalBackend
from repro.runtime.disk_cache import DiskResultCache
from repro.wild.asdb import Cdn
from repro.wild.stream import (
    ScanRequest,
    StreamCoordinator,
    SyntheticSource,
    TrancoSource,
    scan_fingerprint,
    shard_ranges,
    source_from_spec,
)
from repro.wild.tranco import TrancoGenerator


def synthetic_request(count=6000, shard_size=1000, **overrides):
    doc = {
        "source": {"kind": "synthetic", "count": count, "seed": 3},
        "shard_size": shard_size,
        "vantage_names": ("Hamburg",),
        "days": 1,
    }
    doc.update(overrides)
    return ScanRequest.from_dict(doc)


def run_scan(request, *, disk_cache=None, sink=None, window=None):
    with LocalBackend(2) as backend:
        return StreamCoordinator(
            backend,
            request,
            disk_cache=disk_cache,
            sink=sink,
            window=window,
        ).run()


# -- target sources -----------------------------------------------------


def test_tranco_iter_domains_streams_the_same_list():
    generator = TrancoGenerator(list_size=2000, seed=5)
    # any sub-range equals the same slice of the full list
    full = list(generator.iter_domains())
    assert list(generator.iter_domains(101, 350)) == full[100:350]


def test_sources_iterate_range_consistently():
    for source in (TrancoSource(1500, seed=2), SyntheticSource(1500, seed=2)):
        full = list(source.iter_range(0, source.size))
        assert len(full) == 1500
        assert list(source.iter_range(400, 900)) == full[400:900]
        rebuilt = source_from_spec(source.spec())
        assert list(rebuilt.iter_range(0, 50)) == full[:50]


def test_shard_ranges_cover_exactly():
    ranges = shard_ranges(10_500, 4_000)
    assert ranges == [(0, 4000), (4000, 8000), (8000, 10500)]
    assert shard_ranges(5, 100) == [(0, 5)]


def test_bad_source_spec_is_typed():
    with pytest.raises(InvalidOverride):
        source_from_spec({"kind": "carrier-pigeon"})
    with pytest.raises(InvalidOverride):
        source_from_spec({"kind": "synthetic", "count": -1, "seed": 0})
    with pytest.raises(InvalidOverride):
        source_from_spec({"kind": "synthetic"})  # missing keys


# -- scan request -------------------------------------------------------


def test_scan_request_roundtrip_and_fingerprint():
    request = synthetic_request()
    again = ScanRequest.from_dict(json.loads(json.dumps(request.to_dict())))
    assert again == request
    assert scan_fingerprint(again) == scan_fingerprint(request)
    # the fingerprint pins scan semantics, so any knob changes it
    assert scan_fingerprint(synthetic_request(shard_size=500)) != scan_fingerprint(request)


def test_scan_request_validation_is_typed():
    with pytest.raises(InvalidOverride):
        synthetic_request(days=0)
    with pytest.raises(InvalidOverride):
        synthetic_request(probe_engine="quantum")
    with pytest.raises(InvalidOverride):
        synthetic_request(vantage_names=("Atlantis",))
    with pytest.raises(InvalidOverride):
        ScanRequest.from_dict({"source": {"kind": "nope"}})


# -- coordinator --------------------------------------------------------


def test_summary_is_independent_of_sharding_geometry():
    reference = run_scan(synthetic_request(shard_size=1000))
    resharded = run_scan(synthetic_request(shard_size=777))
    assert resharded.sketch.summary() == reference.sketch.summary()
    assert resharded.sketch.targets == 6000


def test_shard_events_tell_the_whole_story():
    events = []
    report = run_scan(synthetic_request(), sink=events.append, window=3)
    kinds = [event.kind for event in events]
    assert kinds.count("shard_dispatched") == 6
    assert kinds.count("shard_completed") == 6
    assert kinds[-1] == "scan_completed"
    completed = [e for e in events if e.kind == "shard_completed"]
    assert [e.completed_shards for e in completed] == list(range(1, 7))
    assert {e.source for e in completed} == {"executed"}
    assert report.executed_shards == 6


def test_killed_scan_resumes_to_byte_identical_summary(tmp_path, monkeypatch):
    request = synthetic_request()
    reference = run_scan(request)

    cache_dir = str(tmp_path / "cache")
    backend = LocalBackend(2)
    real_run_cells = backend.run_cells
    calls = {"n": 0}

    def crash_after_first_wave(cells, chunk_size=1):
        if calls["n"] >= 1:
            raise RuntimeError("simulated coordinator death")
        calls["n"] += 1
        return real_run_cells(cells, chunk_size=chunk_size)

    monkeypatch.setattr(backend, "run_cells", crash_after_first_wave)
    with backend:
        coordinator = StreamCoordinator(
            backend, request, disk_cache=DiskResultCache(cache_dir), window=2
        )
        with pytest.raises(RuntimeError):
            coordinator.run()

    restarted = run_scan(request, disk_cache=DiskResultCache(cache_dir))
    assert restarted.cached_shards == 2  # the stored first wave
    assert restarted.executed_shards == 4
    assert restarted.to_json() == reference.to_json()


def test_a_store_of_another_scan_serves_only_the_shards_it_shares(tmp_path):
    """A shard's key names everything its sketch depends on, so a
    store written by another scan grafts nothing foreign into this one:
    it serves what both plan (here: nothing) and this scan executes the
    rest; the store then serves both scans."""
    cache = DiskResultCache(str(tmp_path / "cache"))
    other = run_scan(synthetic_request(seed=99), disk_cache=cache)
    mine = run_scan(synthetic_request(), disk_cache=cache)
    assert (mine.cached_shards, mine.executed_shards) == (0, 6)
    assert mine.to_json() == run_scan(synthetic_request()).to_json()
    again = run_scan(synthetic_request(seed=99), disk_cache=cache)
    assert (again.cached_shards, again.executed_shards) == (6, 0)
    assert again.to_json() == other.to_json()


def test_disk_cache_serves_a_rescan_byte_identically(tmp_path):
    cache = DiskResultCache(str(tmp_path / "cache"))
    request = synthetic_request()
    first = run_scan(request, disk_cache=cache)
    second = run_scan(request, disk_cache=cache)
    assert first.executed_shards == 6
    assert second.executed_shards == 0
    assert second.cached_shards == 6
    assert second.to_json() == first.to_json()


# -- the API facade -----------------------------------------------------


def test_session_scan_accepts_documents_and_rejects_junk():
    with api.Session() as session:  # serial config: shards probed in-process
        report = session.scan(
            {
                "source": {"kind": "synthetic", "count": 3000, "seed": 1},
                "shard_size": 1000,
                "vantage_names": ["Hamburg"],
                "days": 1,
            }
        )
        assert report.sketch.targets == 3000
        with pytest.raises(InvalidOverride):
            session.scan("not a request")


def test_session_scans_share_one_pool_until_close(monkeypatch):
    """A session owns one backend: runs, scans and repetition sweeps
    all execute on the same process pool, built once and reaped by
    ``close()`` (the parent built five pools for this sequence) — and a
    serial session builds none, scans included."""
    import repro.runtime.backend as backend_module
    from repro.interop.runner import Scenario

    built = []

    class CountingPool(backend_module.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(backend_module, "ProcessPoolExecutor", CountingPool)
    document = {
        "source": {"kind": "synthetic", "count": 2000, "seed": 1},
        "shard_size": 1000,
        "vantage_names": ["Hamburg"],
        "days": 1,
    }
    request = api.RunRequest(("fig6",), smoke=True)

    def exercise(session):
        reports = [session.run(request) for _ in range(3)]
        scan = session.scan(document)
        sweep = session.run_repetitions(Scenario(client="quic-go"), repetitions=4)
        return reports[0].results["fig6"].rows, scan.to_json(), [a.client_stats for a in sweep]

    session = api.Session(api.LocalConfig(workers=2))
    pooled = exercise(session)
    assert len(built) == 1
    assert session._backend._executor is built[0]
    children = list(built[0]._processes.values())
    assert children
    session.close()
    for child in children:
        child.join(timeout=10)
        assert not child.is_alive()

    with api.Session(api.LocalConfig(workers=0)) as serial:
        assert exercise(serial) == pooled
    assert len(built) == 1  # the serial session constructed no pool


def test_streamed_table1_matches_in_memory_exactly():
    """table1's in-memory passes are the reference: the same scan as a
    ``ScanRequest`` through ``Session.scan`` (two shards) yields the
    same per-pass shares and per-CDN counts, so the same rows — exact,
    both come from identical integer tallies."""
    spec = get_spec("table1")
    overrides = {"list_size": 6000, "days": 2, "vantage_names": ("Sao Paulo", "Hamburg")}
    request = ScanRequest(
        source={"kind": "tranco", "list_size": 6000, "seed": 0},
        shard_size=5000,
        vantage_names=overrides["vantage_names"],
        days=2,
        seed=0,
    )
    with api.Session(api.LocalConfig(workers=2)) as session:
        in_memory = session.run_experiment("table1", **overrides)
        report = session.scan(request)
    assert report.total_shards == 2
    counts = {Cdn(value): n for value, n in report.sketch.cdn_domains.items()}
    # The sketch's per-(vantage, day) shares, in the order table1's
    # in-memory path builds its measurements (exact: integer tallies
    # divided identically).
    shares = report.sketch.deployment_shares()
    measurements = [
        {Cdn(value): share for value, share in shares.get((name, day), {}).items()}
        for name in request.resolved_vantages()
        for day in range(request.days)
    ]
    streamed = spec.aggregate(
        [(pass_shares, counts) for pass_shares in measurements],
        spec.resolve_params(overrides),
    )
    assert streamed.rows == in_memory.rows
