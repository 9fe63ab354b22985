"""A cell ends when its question is answered.

fig16 reads the first metrics update of the client qlog and table4 the
client's datagrams up to the one carrying the FIN; each spec declares
that point as ``answered``, and a cell every observer of which is
answered stops its event loop there. This file holds the exactness net
(the value observed on the retained prefix equals the value observed on
the whole run, everywhere), what the planner halts and what it keeps
whole, why a halted cell's key differs from a whole one's, and what a
spec may declare.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_cell_sample import draw_cell

from repro.api import write_bundle
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import REGISTRY, get_spec
from repro.experiments.spec import KIND_MATRIX, ExperimentSpec
from repro.interop.runner import Runner, Scenario
from repro.quic.profiles import profile_names
from repro.runtime import ArtifactLevel, Source, SuiteRunner
from repro.runtime.artifacts import ObservedCell
from repro.runtime.backend import LocalBackend
from repro.runtime.disk_cache import DiskResultCache

HALTING = ("fig16", "table4")


def halting_cell(scenario, experiments):
    """``scenario`` observed by ``experiments``, ending once all of them
    are answered — as ``SuiteRunner.plan`` wraps it."""
    specs = [get_spec(exp_id) for exp_id in experiments]
    return ObservedCell(
        scenario,
        ArtifactLevel.TRACE,
        tuple((spec.id, spec.observe) for spec in specs),
        frozenset(spec.reads[0] for spec in specs),
        tuple((spec.reads[0], spec.answered) for spec in specs),
    )


def assert_halted_equals_whole(task, seed, runner):
    halted = task.execute_task(seed, ArtifactLevel.STATS, runner)
    whole = replace(task, answered=()).execute_task(seed, ArtifactLevel.STATS, runner)
    assert halted.observed == whole.observed, (task.scenario.describe(), seed)
    assert halted.duration_ms <= whole.duration_ms


# -- the exactness net ---------------------------------------------------


@pytest.mark.parametrize("profile", profile_names())
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_a_halted_cell_observes_what_the_whole_run_does(profile, draw_seed):
    """For any generated cell under every recovery profile, each
    predicate alone and both together: ``observe`` on the halted run's
    prefix equals ``observe`` on the whole run."""
    scenario, seed = draw_cell(random.Random(draw_seed))
    scenario = replace(scenario, recovery_profile=profile)
    runner = Runner()
    for experiments in (("fig16",), ("table4",), HALTING):
        assert_halted_equals_whole(halting_cell(scenario, experiments), seed, runner)


@pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "paper"])
def test_every_fig16_and_table4_cell_observes_what_the_whole_run_does(smoke):
    plan = SuiteRunner().plan(list(HALTING), smoke=smoke)
    cells = [cell for cell in plan.dispatch_cells if isinstance(cell.scenario, ObservedCell)]
    assert len(cells) == len(plan.unique_cells) == (32 if smoke else 1120)
    runner = Runner()
    for cell in cells:
        assert cell.scenario.answered
        assert_halted_equals_whole(cell.scenario, cell.seed, runner)


def test_a_cell_that_never_answers_runs_whole():
    """picoquic logs no metrics update at seed 0: fig16 falls back to
    the whole qlog, so the cell never answers and processes exactly the
    events the whole run does, up to the timeout."""
    plan = SuiteRunner().plan(["fig16"], smoke=True)
    task = next(
        cell.scenario for cell in plan.dispatch_cells
        if cell.scenario.scenario.client == "picoquic"
    )
    [(source, answered)] = task.answered
    runs = [
        Runner().run_once(
            task.scenario, 0, capture_trace=False, record_qlog={"client"}, until=until
        )
        for until in ([(source.value, answered)], ())
    ]
    unanswered, whole = runs
    assert not any(answered(event) for event in whole.client_qlog.events)
    assert not unanswered.client.loop.stopped
    assert unanswered.client.loop.events_processed == whole.client.loop.events_processed
    assert unanswered.duration_ms == whole.duration_ms == task.scenario.timeout_ms
    assert unanswered.client_stats == whole.client_stats


def test_a_halted_run_keeps_its_clock_and_is_no_timeout():
    plan = SuiteRunner().plan(["fig16"], smoke=True)
    task = plan.dispatch_cells[0].scenario
    [(source, answered)] = task.answered
    run = Runner().run_once(
        task.scenario, 0, capture_trace=False, record_qlog={"client"},
        until=[(source.value, answered)],
    )
    assert run.client.loop.stopped
    assert any(map(answered, run.client_qlog.events))
    assert 0 < run.duration_ms < task.scenario.timeout_ms
    assert run.client_stats.aborted is None and not run.client_stats.completed


def test_a_watch_answered_by_the_first_datagram_runs_no_event():
    """The client's first Initial is captured as ``start()`` sends it,
    before the loop runs: a predicate true of it ends the run there."""
    run = Runner().run_once(
        Scenario(), 0, capture_trace={"client->server"}, record_qlog=False,
        until=[("client->server", _always)],
    )
    assert run.client.loop.stopped and run.client.loop.events_processed == 0
    assert run.duration_ms == 0.0 and len(run.tracer.filter(link="client->server")) == 1


# -- what the planner halts ----------------------------------------------


def _fig16_smoke_cells(params):
    fig16 = get_spec("fig16")
    return fig16.plan_cells(fig16.resolve_params(smoke=True))[:4]


def _stats_rows(results, params):
    return ExperimentResult(
        experiment_id="probe-stats",
        title="stats of fig16 cells",
        headers=["completed", "duration [ms]", "datagrams sent"],
        rows=[
            [cell.completed, cell.duration_ms, cell.client_stats.datagrams_sent]
            for cell in results
        ],
    )


#: A stats-level experiment that reads four of fig16's smoke cells.
STATS_PROBE = ExperimentSpec(
    id="probe-stats", title="probe", paper="-", kind=KIND_MATRIX,
    artifact_level=ArtifactLevel.STATS, cells=_fig16_smoke_cells, aggregate=_stats_rows,
)


def test_a_stats_spec_sharing_a_fig16_scenario_keeps_that_slot_whole():
    plan = SuiteRunner().plan(["fig16", STATS_PROBE], smoke=True)
    fig16, probe = plan.experiments
    shared = set(probe.slots)
    assert len(shared) == 4 and shared <= set(fig16.slots)
    for slot in fig16.slots:
        task = plan.dispatch_cells[slot].scenario
        assert bool(task.answered) == (slot not in shared)
    assert "28 of them end once their observers are answered" in plan.describe()


def test_every_paper_default_fig16_and_table4_cell_halts():
    """``run all`` at paper defaults: 1,120 halting cells, every fig16
    and table4 cell, none of them read by a stats-level experiment."""
    plan = SuiteRunner().plan(REGISTRY.ids())
    halting = {
        slot for slot, cell in enumerate(plan.dispatch_cells)
        if getattr(cell.scenario, "answered", ())
    }
    by_id = {planned.spec.id: planned for planned in plan.experiments}
    assert len(halting) == 1120
    assert halting == set(by_id["fig16"].slots) | set(by_id["table4"].slots)
    stats_read = {
        slot for planned in plan.experiments if planned.spec.observe is None
        for slot in planned.slots
    }
    assert not halting & stats_read


# -- what the store serves -----------------------------------------------


def test_a_halted_entry_is_never_served_to_a_slot_that_reads_stats(tmp_path):
    """fig16 alone stores its cells halted; fig16 beside a stats-level
    experiment on the same store re-executes the four cells that
    experiment reads (their keys differ) and renders the bytes of a
    cold run — not stats of a prefix."""
    cache_dir = str(tmp_path / "cache")
    with LocalBackend(0) as backend:
        SuiteRunner(backend=backend, disk_cache=DiskResultCache(cache_dir)).run(
            ["fig16"], smoke=True
        )
        shared = SuiteRunner(backend=backend, disk_cache=DiskResultCache(cache_dir)).run(
            ["fig16", STATS_PROBE], smoke=True
        )
        cold = SuiteRunner(backend=backend).run(["fig16", STATS_PROBE], smoke=True)
    assert (shared.extra["disk_cache_hits"], shared.extra["disk_cache_misses"]) == (28, 4)
    assert all(row[0] for row in cold.results["probe-stats"].rows)  # whole runs complete
    written = {path.name: path.read_bytes() for path in write_bundle(shared, tmp_path / "s")}
    assert written == {
        path.name: path.read_bytes() for path in write_bundle(cold, tmp_path / "c")
    }


# -- what a spec may declare ---------------------------------------------


def _no_cells(params):
    return []


def _no_rows(results, params):
    return ExperimentResult(experiment_id="probe", title="probe", headers=[], rows=[])


def _observe_nothing(artifacts):
    return None


def _always(item):
    return True


def spec(**kwargs):
    return ExperimentSpec(
        id="probe", title="probe", paper="-", kind=KIND_MATRIX,
        cells=_no_cells, aggregate=_no_rows, **kwargs,
    )


def test_answered_without_observe_is_refused():
    with pytest.raises(ValueError, match="none given"):
        spec(artifact_level=ArtifactLevel.STATS, answered=_always)


def test_answered_over_other_than_one_source_is_refused():
    with pytest.raises(ValueError, match="reads declares 2"):
        spec(
            artifact_level=ArtifactLevel.TRACE, observe=_observe_nothing,
            reads=(Source.CLIENT_QLOG, Source.CLIENT_TO_SERVER), answered=_always,
        )


def test_answered_as_a_lambda_or_closure_is_refused():
    def closure(item):
        return True

    for answered in (lambda item: True, closure):
        with pytest.raises(ValueError, match="module-level"):
            spec(
                artifact_level=ArtifactLevel.TRACE, observe=_observe_nothing,
                reads=(Source.CLIENT_QLOG,), answered=answered,
            )
    declared = spec(
        artifact_level=ArtifactLevel.TRACE, observe=_observe_nothing,
        reads=(Source.CLIENT_QLOG,), answered=_always,
    )
    assert declared.answered is _always
    assert get_spec("fig16").describe()["ends"] == "first metrics update"
    assert get_spec("table4").describe()["ends"] == "client FIN"
    assert get_spec("fig11").describe()["ends"] is None
