"""The ``repro.api`` façade: sessions, typed errors, run events,
versioned bundles, and its standing as the only run path."""

import json
import threading
import time

import pytest

import repro.api as api
from repro.api import (
    BackendError,
    BundleVersionError,
    DistributedConfig,
    ExperimentResult,
    InvalidOverride,
    LocalConfig,
    RunRequest,
    Session,
    UnknownExperiment,
    WorkerAuthError,
    load_result,
    load_suite,
    run,
    run_experiment,
    write_bundle,
)
from repro.runtime.disk_cache import cell_fingerprint
from repro.runtime.distributed import worker_main
from repro.runtime.events import (
    ExperimentCompleted,
    SuiteCompleted,
    SuitePlanned,
    WorkerJoined,
)
from repro.schema import BUNDLE_SCHEMA_VERSION


# -- sessions and requests ----------------------------------------------


def test_session_runs_a_suite_and_fans_results_out():
    with Session() as session:
        report = session.run(
            RunRequest(("fig6", "table5"), smoke=True)
        )
    assert set(report.results) == {"fig6", "table5"}
    assert len(report.results["fig6"].rows) == 8
    assert report.plan.shared_cells == 0


def test_session_run_experiment_kwargs_are_overrides():
    with Session() as session:
        result = session.run_experiment("fig6", smoke=True, rtt_ms=50.0)
    assert "@50ms RTT" in result.title


def test_all_selection_expands_to_the_registry():
    with Session() as session:
        plan = session.plan(RunRequest("all", smoke=True))
    # 19 paper artifacts + the 3 recovery-lab sweeps.
    assert len(plan.experiments) == 22


def test_module_level_run_experiment_convenience():
    result = run_experiment("table5")
    assert result.experiment_id == "table5"


# -- the error taxonomy through Session.run -----------------------------


def test_unknown_experiment_raises_typed_error():
    with Session() as session:
        with pytest.raises(UnknownExperiment, match="fig99"):
            session.run(RunRequest(("fig6", "fig99")))


def test_unknown_override_key_raises_invalid_override():
    with Session() as session:
        with pytest.raises(InvalidOverride, match="unknown parameter 'reptitions'"):
            session.run(
                RunRequest(("fig6",), overrides={"fig6": {"reptitions": 2}})
            )


def test_override_for_unselected_experiment_raises_invalid_override():
    with Session() as session:
        with pytest.raises(InvalidOverride, match="not in the selection"):
            session.run(
                RunRequest(("fig6",), overrides={"fig12": {"rtt_ms": 9.0}})
            )


def test_duplicate_selection_raises_invalid_override():
    with Session() as session:
        with pytest.raises(InvalidOverride, match="selected twice"):
            session.run(RunRequest(("fig6", "fig6"), smoke=True))


def test_override_for_unknown_experiment_raises_unknown_experiment():
    with Session() as session:
        with pytest.raises(UnknownExperiment, match="fig99"):
            session.run(RunRequest(("fig6",), overrides={"fig99": {"x": 1}}))


def test_distributed_backend_that_never_assembles_raises_backend_error():
    config = DistributedConfig(min_workers=1, worker_timeout=0.2)
    with Session(config) as session:
        with pytest.raises(BackendError, match="timed out waiting"):
            session.run(RunRequest(("fig6",), smoke=True))


def test_wrong_auth_key_raises_worker_auth_error():
    config = DistributedConfig(
        min_workers=1, worker_timeout=2.0, auth_key="right-key"
    )
    with Session(config) as session:
        host, port_text = session.address.rsplit(":", 1)
        threading.Thread(
            target=worker_main,
            args=(host, int(port_text)),
            kwargs={"retry_for": 5.0, "auth_key": b"wrong-key"},
            daemon=True,
        ).start()
        with pytest.raises(WorkerAuthError, match="authentication"):
            session.run(RunRequest(("fig6",), smoke=True))


def test_closed_session_refuses_to_run():
    session = Session()
    session.close()
    with pytest.raises(BackendError, match="closed"):
        session.run(RunRequest(("table5",)))


# -- run events ---------------------------------------------------------


def test_run_events_cover_plan_progress_and_completion():
    events = []
    with Session() as session:
        session.run(RunRequest(("fig6",), smoke=True), on_event=events.append)
    kinds = [event.kind for event in events]
    assert kinds[0] == "suite_planned"
    planned = events[0]
    assert isinstance(planned, SuitePlanned)
    assert planned.experiments == ("fig6",)
    assert planned.unique_cells == 32  # 16 scenarios x 2 smoke repetitions
    assert "cell_completed" in kinds
    assert isinstance(events[-2], ExperimentCompleted)
    assert isinstance(events[-1], SuiteCompleted)
    assert events[-1].executed_cells == 32


def test_session_level_and_per_run_sinks_both_fire():
    session_events, run_events = [], []
    with Session(on_event=session_events.append) as session:
        session.run(RunRequest(("table5",)), on_event=run_events.append)
    assert [e.kind for e in session_events] == [e.kind for e in run_events]
    assert session_events


def test_raising_sink_does_not_break_the_run():
    def broken(event):
        raise RuntimeError("observer bug")

    with Session(on_event=broken) as session:
        report = session.run(RunRequest(("table5",)))
    assert "table5" in report.results


def test_stream_yields_events_then_result():
    """A submitted run is consumed as its stream of events, then its
    report."""
    with Session() as session:
        handle = session.submit(RunRequest(("table5",)))
        kinds = [event.kind for event in handle.events()]
        report = handle.result(timeout=60)
    assert kinds[0] == "suite_planned"
    assert kinds[-1] == "suite_completed"
    assert report.results["table5"].rows


def test_stream_reraises_run_failures():
    config = DistributedConfig(min_workers=1, worker_timeout=0.2)
    with Session(config) as session:
        handle = session.submit(RunRequest(("fig6",), smoke=True))
        list(handle.events())
        with pytest.raises(BackendError, match="timed out waiting"):
            handle.result(timeout=60)


def test_removed_options_are_refused_not_ignored():
    """The scan window is derived, a worker has one dial window, and a
    run is streamed through its job handle: each old spelling fails."""
    with Session() as session:
        with pytest.raises(TypeError):
            session.scan({"source": {"kind": "synthetic", "count": 10}}, window=4)
    with pytest.raises(TypeError):
        worker_main("127.0.0.1", 1, rejoin_for=5)
    assert not hasattr(Session, "stream") and not hasattr(api, "RunStream")
    assert "RunStream" not in api.__all__


def test_distributed_run_emits_worker_events_and_matches_local():
    request = RunRequest(("fig6",), smoke=True)
    with Session() as session:
        local = session.run(request)
    events = []
    config = DistributedConfig(min_workers=1, worker_timeout=30.0)
    with Session(config, on_event=events.append) as session:
        host, port_text = session.address.rsplit(":", 1)
        threading.Thread(
            target=worker_main,
            args=(host, int(port_text)),
            kwargs={"retry_for": 10.0},
            daemon=True,
        ).start()
        # The session-lifetime sink sees the fleet assemble *before*
        # any run starts.
        deadline = time.monotonic() + 30.0
        while session.backend_stats.workers_seen < 1:
            assert time.monotonic() < deadline, "worker never connected"
            time.sleep(0.05)
        assert any(isinstance(event, WorkerJoined) for event in events)
        distributed = session.run(request)
        assert session.backend_stats.workers_seen == 1
    assert any(isinstance(event, WorkerJoined) for event in events)
    assert any(event.kind == "chunk_dispatched" for event in events)
    assert any(event.kind == "chunk_completed" for event in events)
    # the api path preserves the runtime's bit-identity guarantee
    assert distributed.results["fig6"].to_json() == local.results["fig6"].to_json()


# -- the plan does not know where it will run -----------------------------


def test_a_plan_is_identical_whatever_the_session_runs_on():
    """Sessions of any width, local or fleet, plan the same params and
    the same cell fingerprints — ``workers`` used to flow into fig14 /
    fig15 / table1's params, so a store could not change hands."""
    request = RunRequest(("fig6", "fig15", "table1"), smoke=True)
    plans = []
    for config in (LocalConfig(workers=0), LocalConfig(workers=2), DistributedConfig()):
        with Session(config) as session:
            plans.append(session.plan(request))
    assert all("workers" not in p.params for plan in plans for p in plan.experiments)
    keys = {
        tuple(cell_fingerprint(c.scenario, c.seed, "stats") for c in plan.dispatch_cells)
        for plan in plans
    }
    assert len(keys) == 1
    assert not hasattr(DistributedConfig(), "workers")
    with pytest.raises(InvalidOverride, match="unknown parameter 'workers'"):
        with Session() as session:
            session.plan(RunRequest(("fig15",), overrides={"fig15": {"workers": 0}}))


# -- versioned bundles --------------------------------------------------


def test_bundles_are_stamped_with_the_schema_version(tmp_path):
    with Session() as session:
        report = session.run(RunRequest(("table5",)))
        written = write_bundle(report, tmp_path / "out")
    payloads = [json.loads(path.read_text()) for path in written]
    assert all(p["schema_version"] == BUNDLE_SCHEMA_VERSION for p in payloads)
    result = load_result(tmp_path / "out" / "table5.json")
    assert result.experiment_id == "table5"
    suite = load_suite(tmp_path / "out" / "suite.json")
    assert suite["results"]["table5"]["schema_version"] == BUNDLE_SCHEMA_VERSION


def test_unstamped_bundle_is_rejected(tmp_path):
    payload = ExperimentResult(
        experiment_id="x", title="t", headers=["a"], rows=[[1]]
    ).to_dict()
    del payload["schema_version"]
    with pytest.raises(BundleVersionError, match="missing or malformed"):
        ExperimentResult.from_dict(payload)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(BundleVersionError, match="missing or malformed"):
        load_result(path)
    with pytest.raises(BundleVersionError, match="missing or malformed"):
        ExperimentResult.from_dict({**payload, "schema_version": 0})


def test_future_bundle_version_is_rejected():
    payload = ExperimentResult(
        experiment_id="x", title="t", headers=["a"], rows=[[1]]
    ).to_dict()
    payload["schema_version"] = BUNDLE_SCHEMA_VERSION + 1
    with pytest.raises(BundleVersionError, match="at most version"):
        ExperimentResult.from_dict(payload)
    with pytest.raises(BundleVersionError, match="malformed"):
        ExperimentResult.from_dict({**payload, "schema_version": "two"})


def test_json_round_trip_preserves_rows():
    original = ExperimentResult(
        experiment_id="x", title="t", headers=["a", "b"], rows=[[1, "y"]]
    )
    assert ExperimentResult.from_json(original.to_json()).rows == [[1, "y"]]


# -- one run path ------------------------------------------------------


def test_no_experiment_module_or_package_offers_a_second_run_path():
    """Session.run -> SuiteRunner.run is the only way in: no experiment
    module defines run(), a spec cannot execute itself, and neither
    package exports the deleted wrappers."""
    import importlib

    import repro.api
    import repro.runtime
    from repro.experiments import EXPERIMENT_INDEX, ExperimentSpec

    for module_name in EXPERIMENT_INDEX.values():
        assert not hasattr(importlib.import_module(module_name), "run"), module_name
    for name in ("execute", "resolve"):
        assert not hasattr(ExperimentSpec, name)
    for package in (repro.api, repro.runtime):
        for name in ("legacy_run", "run_suite", "run_cells_streamed"):
            assert not hasattr(package, name), (package.__name__, name)
            assert name not in package.__all__
    # ... and one cell engine: nothing in the package imports numpy or
    # names the deleted batch engine.
    import pathlib
    import re

    import repro

    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        found = re.search(r"batch_engine|^\s*(import|from) numpy", path.read_text(), re.M)
        assert found is None, (str(path), found.group(0))


# -- module-level convenience parity ------------------------------------


def test_run_request_round_trips_through_dict():
    request = RunRequest(
        ("fig6", "fig12"),
        overrides={"fig6": {"repetitions": 1}},
        smoke=True,
    )
    doc = request.to_dict()
    assert sorted(doc) == ["experiments", "overrides", "smoke"]
    assert doc["experiments"] == ["fig6", "fig12"]
    assert RunRequest.from_dict(json.loads(json.dumps(doc))) == request


def test_run_request_from_dict_rejects_garbage():
    with pytest.raises(InvalidOverride):
        RunRequest.from_dict("not a mapping")
    with pytest.raises(InvalidOverride):
        RunRequest.from_dict({"smoke": True})  # no experiments
    # A stale client's engine choice is refused, not silently dropped.
    with pytest.raises(InvalidOverride, match="unknown key.*engine"):
        RunRequest.from_dict({"experiments": ["fig6"], "engine": "batch"})
    with pytest.raises(TypeError):
        RunRequest("fig6", engine="scalar")


def test_module_level_run_accepts_cache_dir(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = run("fig6", smoke=True, cache_dir=cache_dir)
    assert cold.extra["disk_cache_misses"] > 0
    warm = run("fig6", smoke=True, cache_dir=cache_dir)
    assert warm.extra["disk_cache_misses"] == 0
    assert warm.results["fig6"].rows == cold.results["fig6"].rows


def test_session_run_experiment_parity_with_run():
    with Session() as session:
        via_experiment = session.run_experiment("fig6", smoke=True)
        via_run = session.run(RunRequest("fig6", smoke=True))
    assert via_experiment.rows == via_run.results["fig6"].rows
