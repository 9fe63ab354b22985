"""Suite planning: cross-experiment dedup, execute-once fan-out, and
per-cell observation of the trace-reading experiments."""

from dataclasses import FrozenInstanceError, replace

import pytest

import repro.runtime.backend as backend_module
from repro.api import (
    BackendError,
    InvalidOverride,
    LocalConfig,
    RunRequest,
    Session,
    run_experiment,
)
from repro.api.bundles import bundle_files
from repro.experiments.registry import REGISTRY, get_spec
from repro.interop.runner import Runner
from repro.runtime import ArtifactLevel, ResultCache, SuiteRunner
from repro.runtime.artifacts import ObservedCell
from repro.runtime.backend import LocalBackend
from repro.runtime.disk_cache import CellKey, DiskResultCache, cell_fingerprint
from repro.runtime.suite import _PLANS, PLAN_MEMO_ENTRIES, max_level
from repro.runtime.workloop import LEVEL


def run_suite(experiments, **kwargs):
    """Run a suite on an in-process backend of its own."""
    with LocalBackend(0) as backend:
        return SuiteRunner(backend=backend).run(experiments, **kwargs)


FIG6_FIG12_OVERRIDES = {
    "fig6": {"repetitions": 2},
    "fig12": {"repetitions": 2, "rtts_ms": (9.0, 100.0)},
}


def test_max_level_promotes_to_richest():
    assert max_level([]) is ArtifactLevel.STATS
    assert (
        max_level([ArtifactLevel.STATS, ArtifactLevel.TRACE])
        is ArtifactLevel.TRACE
    )
    assert (
        max_level([ArtifactLevel.FULL, ArtifactLevel.STATS])
        is ArtifactLevel.FULL
    )


def test_plan_dedupes_shared_cells():
    plan = SuiteRunner().plan(["fig6", "fig12"], overrides=FIG6_FIG12_OVERRIDES)
    # fig6: 16 scenarios x 2 reps; fig12: 32 x 2. The 9 ms column of
    # fig12 is exactly fig6's matrix -> 32 shared cells.
    assert plan.total_cells == 96
    assert len(plan.unique_cells) == 64
    assert plan.shared_cells == 32
    assert plan.artifact_level is ArtifactLevel.STATS
    assert "unique after dedup: 64" in plan.describe()


def test_suite_dispatches_shared_cells_once_and_stays_bit_identical(monkeypatch):
    """fig6 + fig12 planned together must execute the shared 9 ms cells
    exactly once and reproduce the standalone results bit for bit."""
    executed = []
    real_execute = backend_module.execute_cell

    def counting_execute(scenario, seed, level, runner=None):
        executed.append((scenario, seed))
        return real_execute(scenario, seed, level, runner)

    monkeypatch.setattr(backend_module, "execute_cell", counting_execute)
    report = run_suite(
        ["fig6", "fig12"], overrides=FIG6_FIG12_OVERRIDES
    )
    assert len(executed) == 64  # one dispatch per unique cell, none twice
    assert report.executed_cells == 64
    standalone6 = run_experiment("fig6", repetitions=2)
    standalone12 = run_experiment("fig12", repetitions=2, rtts_ms=(9.0, 100.0))
    assert report.results["fig6"].rows == standalone6.rows
    assert report.results["fig12"].rows == standalone12.rows


def test_suite_observes_trace_cells_and_runs_the_rest_at_stats(monkeypatch):
    """table4 (trace) + fig6 (stats): only table4's cells retain
    anything — the one link table4 declares it reads, no qlog — and only
    while its observer reads it; what comes back is stats-level
    everywhere, and both results equal their standalone runs. (Until
    PR 17 the whole suite was promoted to trace level and spilled to
    disk; until PR 21 an observed cell kept both links and both qlogs.)"""
    levels = []
    real_run_once = Runner.run_once

    def recording_run_once(
        self, scenario, seed=None, *, capture_trace=True, record_qlog=True, until=()
    ):
        levels.append((capture_trace, record_qlog))
        return real_run_once(
            self, scenario, seed, capture_trace=capture_trace, record_qlog=record_qlog,
            until=until,
        )

    monkeypatch.setattr(Runner, "run_once", recording_run_once)
    report = run_suite(
        ["table4", "fig6"],
        overrides={"table4": {"repetitions": 1}, "fig6": {"repetitions": 1}},
    )
    plan = report.plan
    assert plan.artifact_level is ArtifactLevel.TRACE  # what to_dict() reports
    observed = [isinstance(c.scenario, ObservedCell) for c in plan.dispatch_cells]
    assert levels == [
        ({"client->server"}, set()) if is_observed else (False, False) for is_observed in observed
    ]
    assert sum(observed) == 8 < report.executed_cells
    assert all(not isinstance(c.scenario, ObservedCell) for c in plan.unique_cells)
    del levels[:]
    assert report.results["table4"].rows == run_experiment("table4", repetitions=1).rows
    assert report.results["fig6"].rows == run_experiment("fig6", repetitions=1).rows


def test_suite_auto_spill_off_for_stats_plans():
    """The spill is gone and so is its accounting: the three keys that
    read constant 0 since PRs 13/17 left the report and ``suite.json``
    in PR 19 (``BUNDLE_SCHEMA_VERSION`` still 1, see schema.py)."""
    report = run_suite(
        ["fig6"], overrides={"fig6": {"repetitions": 1}}
    )
    assert set(report.to_dict()) == {"schema_version", "plan", "executed_cells", "results"}
    for gone in ("spilled_cells", "cache_hits", "cache_misses"):
        assert not hasattr(report, gone)


def test_suite_mixed_kinds_runs_model_and_wild_without_cells():
    report = run_suite(
        ["table2", "table5", "fig6"], overrides={"fig6": {"repetitions": 1}}
    )
    assert set(report.results) == {"table2", "table5", "fig6"}
    assert report.results["table2"].extra["matches"]
    assert report.executed_cells == 16


def test_suite_plans_wild_passes_whatever_its_workers():
    """How wide a suite executes is not a parameter: the plan (params,
    pass cells and their fingerprints) is the same at any worker count."""
    def plan_at(workers):
        with Session(LocalConfig(workers=workers)) as session:
            return session.plan(RunRequest(("table1",), smoke=True))

    serial, wide = plan_at(0), plan_at(3)
    assert "workers" not in wide.experiments[0].params
    assert wide.experiments[0].params == serial.experiments[0].params
    assert [c.scenario.task_key() for c in wide.experiments[0].cells] == [
        ("ScanPass", 1, 5000, "Sao Paulo", 0, "analytic")
    ]

    def keys(plan):
        return [cell_fingerprint(c.scenario, c.seed, "stats") for c in plan.dispatch_cells]

    assert keys(wide) == keys(serial)


def test_suite_respects_base_seed_override():
    """A base_seed override governs the planned cells, and the suite's
    result is the single-experiment run at that seed base."""
    overrides = {"fig6": {"repetitions": 2, "base_seed": 7}}
    plan = SuiteRunner().plan(["fig6"], overrides=overrides)
    assert {c.seed for c in plan.unique_cells} == {7, 8}
    report = run_suite(["fig6"], overrides=overrides)
    assert report.results["fig6"].rows == run_experiment("fig6", repetitions=2, base_seed=7).rows
    assert report.results["fig6"].rows != run_experiment("fig6", repetitions=2).rows


def test_suite_rejects_underpowered_shared_runner():
    """The shared-runner suite mode is gone, not deprecated: the suite
    takes no runner at all, underpowered or otherwise — it creates one
    at exactly the plan's artifact level."""
    with pytest.raises(TypeError):
        SuiteRunner(runner=object())


def test_suite_takes_its_backend_from_the_caller():
    """A suite owns no backend: there is no ``workers`` to make one
    from, and ``run`` without a backend is refused before it plans."""
    with pytest.raises(TypeError):
        SuiteRunner(workers=2)
    with pytest.raises(BackendError, match="needs a backend"):
        SuiteRunner().run(["fig6"])


def test_suite_rejects_cache_alongside_shared_runner():
    """The suite takes no in-memory cache."""
    with pytest.raises(TypeError):
        SuiteRunner(cache=ResultCache())


def test_suite_plan_reports_unplannable_overrides_as_invalid_override():
    """A well-shaped override the experiment cannot plan with is the
    caller's mistake: typed, named, and raised before any cell runs."""
    with pytest.raises(InvalidOverride, match="fig6: repetitions must be positive"):
        SuiteRunner().plan(["fig6"], overrides={"fig6": {"repetitions": 0}})
    with pytest.raises(InvalidOverride, match="fig6"):
        SuiteRunner().plan(["fig6"], overrides={"fig6": {"repetitions": 2.5}})


def test_suite_rejects_duplicate_selection_and_stray_overrides():
    with pytest.raises(ValueError, match="selected twice"):
        SuiteRunner().plan(["fig6", "fig6"])
    with pytest.raises(ValueError, match="unselected"):
        SuiteRunner().plan(["fig6"], overrides={"fig12": {"repetitions": 1}})


def test_suite_report_serializes():
    report = run_suite(
        ["fig6"], overrides={"fig6": {"repetitions": 1}}
    )
    payload = report.to_dict()
    assert payload["plan"]["total_cells"] == 16
    assert payload["results"]["fig6"]["experiment_id"] == "fig6"


# -- one plan per distinct request ---------------------------------------


def test_plans_for_equal_but_differently_typed_params_are_never_shared():
    """``[9, 100]`` and ``[9.0, 100.0]`` compare equal but render
    different rows (``9`` against ``9.0``): each request, planned
    after the other, renders what it renders in a fresh session."""
    ints = RunRequest(("fig12",), overrides={"fig12": {"rtts_ms": [9, 100]}}, smoke=True)
    floats = RunRequest(("fig12",), overrides={"fig12": {"rtts_ms": [9.0, 100.0]}}, smoke=True)

    def render(*requests):
        with Session() as session:
            return [bundle_files(session.run(request)) for request in requests]

    (alone_ints,), (alone_floats,) = render(ints), render(floats)
    assert alone_ints != alone_floats
    assert render(ints, floats) == render(floats, ints)[::-1] == [alone_ints, alone_floats]


def test_a_shared_plan_is_read_only_and_unchanged_by_its_runs():
    request = RunRequest(("fig6", "fig16"), smoke=True)

    def state(plan):
        return (
            plan.to_dict(),
            [dict(p.params) for p in plan.experiments],
            [p.cells for p in plan.experiments],
            plan.dispatch_cells,
            plan.keys,
        )

    with Session() as session:
        plan = session.plan(request)
        before = state(plan)
        for _ in range(3):
            assert session.run(request).plan is plan
    assert state(plan) == before
    planned = plan.experiments[0]
    with pytest.raises(FrozenInstanceError):
        plan.keys = ()
    with pytest.raises(FrozenInstanceError):
        planned.params = {}
    with pytest.raises(TypeError):
        planned.params["repetitions"] = 1
    assert isinstance(planned.cells, tuple) and isinstance(plan.unique_cells, tuple)


def test_a_spec_passed_as_an_object_is_planned_from_that_object():
    registered = get_spec("fig6")
    trimmed = replace(registered, cells=lambda params: registered.cells(params)[:4])
    runner = SuiteRunner()
    assert runner.plan(["fig6"], smoke=True).total_cells == 32
    assert runner.plan([trimmed], smoke=True).total_cells == 4
    again = runner.plan(["fig6"], smoke=True)
    assert again.total_cells == 32 and again.experiments[0].spec is registered


def test_a_held_plan_is_kept_from_its_callers_mutations():
    runner = SuiteRunner()

    def plan(rtts):
        return runner.plan(["fig12"], overrides={"fig12": {"rtts_ms": rtts}}, smoke=True)

    rtts = [9.0, 100.0]
    held = plan(rtts)
    rtts.append(200.0)
    assert held.experiments[0].params["rtts_ms"] == [9.0, 100.0]
    assert plan([9.0, 100.0]) is held
    assert plan(rtts) is not held


def test_every_session_of_the_process_shares_one_plan_per_request():
    request = RunRequest(("fig6", "fig12"), smoke=True)
    with Session() as first, Session(LocalConfig(workers=0)) as second:
        plan = first.plan(request)
        assert second.plan(request) is plan
        assert SuiteRunner().plan(["fig6", "fig12"], smoke=True) is plan


def test_held_plans_are_bounded_least_recently_used_out(cold_plans):
    runner = SuiteRunner()

    def plan(seed):
        return runner.plan(["fig6"], overrides={"fig6": {"base_seed": seed}}, smoke=True)

    first, second = plan(0), plan(1)
    for seed in range(2, PLAN_MEMO_ENTRIES):
        plan(seed)
    assert plan(0) is first  # used again: now the most recent
    plan(PLAN_MEMO_ENTRIES)  # evicts seed 1, the least recently used
    assert len(_PLANS) == PLAN_MEMO_ENTRIES
    assert plan(0) is first and plan(1) is not second


@pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "paper"])
def test_a_plan_carries_each_dispatch_cells_store_key(tmp_path, smoke):
    """The keys a plan computes once are what the store computes: a
    parent-written cache stays warm."""
    plan = SuiteRunner().plan([spec.id for spec in REGISTRY.specs()], smoke=smoke)
    cache = DiskResultCache(str(tmp_path))
    assert plan.keys == tuple(
        cache.fingerprint(cell.scenario, cell.seed, LEVEL) for cell in plan.dispatch_cells
    )
    assert {type(key) for key in plan.keys} == {CellKey}
