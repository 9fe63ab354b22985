"""Suite planning: cross-experiment dedup, execute-once fan-out, and
per-cell observation of the trace-reading experiments."""

import pytest

import repro.runtime.backend as backend_module
from repro.api import InvalidOverride, run_experiment
from repro.interop.runner import Runner
from repro.runtime import ArtifactLevel, MatrixRunner, ResultCache, SuiteRunner
from repro.runtime.artifacts import ObservedCell
from repro.runtime.disk_cache import cell_fingerprint
from repro.runtime.suite import max_level

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
    report = SuiteRunner(workers=0).run(
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
    report = SuiteRunner(workers=0).run(
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
    report = SuiteRunner(workers=0).run(
        ["fig6"], overrides={"fig6": {"repetitions": 1}}
    )
    assert set(report.to_dict()) == {"schema_version", "plan", "executed_cells", "results"}
    for gone in ("spilled_cells", "cache_hits", "cache_misses"):
        assert not hasattr(report, gone)


def test_suite_mixed_kinds_runs_model_and_wild_without_cells():
    report = SuiteRunner(workers=0).run(
        ["table2", "table5", "fig6"], overrides={"fig6": {"repetitions": 1}}
    )
    assert set(report.results) == {"table2", "table5", "fig6"}
    assert report.results["table2"].extra["matches"]
    assert report.executed_cells == 16


def test_suite_plans_wild_passes_whatever_its_workers():
    """How wide a suite executes is not a parameter: the plan (params,
    pass cells and their fingerprints) is the same at any worker count."""
    serial, wide = (SuiteRunner(workers=n).plan(["table1"], smoke=True) for n in (0, 3))
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
    report = SuiteRunner(workers=0).run(["fig6"], overrides=overrides)
    assert report.results["fig6"].rows == run_experiment("fig6", repetitions=2, base_seed=7).rows
    assert report.results["fig6"].rows != run_experiment("fig6", repetitions=2).rows


def test_suite_rejects_underpowered_shared_runner():
    """The shared-runner suite mode is gone, not deprecated: the suite
    takes no runner at all, underpowered or otherwise — it creates one
    at exactly the plan's artifact level."""
    with MatrixRunner(workers=0, artifact_level="stats") as runner:
        with pytest.raises(TypeError):
            SuiteRunner(runner=runner)


def test_suite_rejects_cache_alongside_shared_runner():
    """Neither the suite nor the matrix runner takes a cache."""
    with pytest.raises(TypeError):
        SuiteRunner(cache=ResultCache())
    with pytest.raises(TypeError):
        MatrixRunner(cache=ResultCache())


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
    report = SuiteRunner(workers=0).run(
        ["fig6"], overrides={"fig6": {"repetitions": 1}}
    )
    payload = report.to_dict()
    assert payload["plan"]["total_cells"] == 16
    assert payload["results"]["fig6"]["experiment_id"] == "fig6"
