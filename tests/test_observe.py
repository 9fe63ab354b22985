"""Per-cell ``observe``: the trace-reading experiments on every path.

fig16, table4 and fig11 read one small value per connection out of its
qlog or packet trace. Since PR 17 that value is computed by the spec's
``observe`` in the process that simulated the cell, and only it (beside
stats-level artifacts) travels — over the pool, the fleet and the
caches. This file holds the paths to the same bytes, the
in-process/round-trip equivalence as a property, what the plan says,
and what a broken observer looks like on each path.
"""

import pickle
import random
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_cell_sample import draw_cell

from repro.api import (
    DistributedConfig,
    LocalConfig,
    ObserveError,
    RunRequest,
    Session,
    write_bundle,
)
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import get_spec
from repro.experiments.spec import KIND_MATRIX, KIND_WILD, ExperimentSpec, expand_cells
from repro.interop.runner import Scenario
from repro.runtime import ArtifactLevel, Cell, Source, SuiteRunner, execute_cell, worker_main
from repro.runtime.artifacts import ALL_SOURCES, ObservedArtifacts, ObservedCell
from repro.runtime.backend import LocalBackend
from repro.runtime.cache import scenario_key
from repro.runtime.disk_cache import DiskResultCache, cell_fingerprint
from repro.runtime.worker import group_cells, run_cell_chunk
from repro.sim.loss import LossPattern
from repro.wild.passes import ScanPass, StudyPass

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "smoke"
OBSERVING = ("fig16", "table4", "fig11")
REQUEST = RunRequest(OBSERVING, smoke=True)


# -- one selection, every path, the same bytes ---------------------------


def assert_golden(report, out_dir):
    written = {path.name: path for path in write_bundle(report, out_dir)}
    for experiment in OBSERVING:
        name = f"{experiment}.json"
        assert written[name].read_bytes() == (GOLDEN_DIR / name).read_bytes(), name
    assert set(report.to_dict()) == {"schema_version", "plan", "executed_cells", "results"}


def fleet_session(workers=2):
    """A distributed session with its loopback worker threads started."""
    session = Session(DistributedConfig(listen=0, min_workers=workers))
    host, port = session.address.rsplit(":", 1)
    for _ in range(workers):
        threading.Thread(
            target=worker_main, args=(host, int(port)), kwargs={"retry_for": 5.0}, daemon=True
        ).start()
    return session


@pytest.mark.parametrize("workers", [0, 2], ids=["serial", "pool"])
def test_local_paths_reproduce_the_golden_bundles(tmp_path, workers):
    with Session(LocalConfig(workers=workers)) as session:
        assert_golden(session.run(REQUEST), tmp_path)


def test_loopback_fleet_reproduces_the_golden_bundles(tmp_path):
    with fleet_session() as session:
        report = session.run(REQUEST)
        assert session.backend_stats.workers_used == 2
    assert_golden(report, tmp_path)


def test_disk_cache_cold_then_warm_reproduces_the_golden_bundles(tmp_path):
    cache_dir = str(tmp_path / "cache")
    with Session(LocalConfig(workers=0), cache_dir=cache_dir) as session:
        cold = session.run(REQUEST)
    assert cold.extra["disk_cache_hits"] == 0
    assert cold.extra["disk_cache_misses"] == cold.executed_cells == 40
    assert_golden(cold, tmp_path / "cold")
    with Session(LocalConfig(workers=0), cache_dir=cache_dir) as session:
        warm = session.run(REQUEST)
    assert (warm.extra["disk_cache_hits"], warm.extra["disk_cache_misses"]) == (40, 0)
    assert_golden(warm, tmp_path / "warm")


def test_a_cache_filled_by_cells_that_retained_everything_is_served_warm(tmp_path):
    """What the parent commit left in a ``cache_dir``: the same keys
    (``sources`` is not part of a cell's identity), values computed
    from cells that kept all four sources. A cell that now ends once
    its observers are answered has a key of its own (its stats are a
    prefix): the 32 fig16 / table4 cells are cold once, then warm."""
    cache_dir = str(tmp_path / "cache")
    plan = SuiteRunner().plan(list(OBSERVING), smoke=True)
    cache = DiskResultCache(cache_dir)
    for cell in plan.dispatch_cells:
        narrow = cell.scenario
        assert narrow.sources < ALL_SOURCES
        everything = ObservedCell(narrow.scenario, narrow.level, narrow.observers)
        assert everything.sources == ALL_SOURCES
        artifacts = execute_cell(everything, cell.seed, ArtifactLevel.STATS)
        artifacts.scenario = None
        cache.put(cache.fingerprint(everything, cell.seed, ArtifactLevel.STATS), artifacts)
    with Session(LocalConfig(workers=0), cache_dir=cache_dir) as session:
        first = session.run(REQUEST)
    assert (first.extra["disk_cache_hits"], first.extra["disk_cache_misses"]) == (8, 32)
    assert_golden(first, tmp_path / "first")
    with Session(LocalConfig(workers=0), cache_dir=cache_dir) as session:
        warm = session.run(REQUEST)
    assert (warm.extra["disk_cache_hits"], warm.extra["disk_cache_misses"]) == (40, 0)
    assert_golden(warm, tmp_path / "warm")


def test_checkpoint_killed_mid_run_then_resumed_reproduces_the_golden_bundles(
    tmp_path, monkeypatch
):
    """The coordinator dies right after its first observed batch (the
    serial path observes every 32 cells and at each chunk end; the
    suite's 40 cells are two chunks of 20), which the cache stored as it
    arrived: the same run started again on the same ``cache_dir`` is
    served those 20 and executes only the rest."""
    cache_dir = str(tmp_path / "cache")
    real_observe = LocalBackend.observe_results

    def die_after_first_batch(self, results):
        real_observe(self, results)
        raise KeyboardInterrupt("killed mid-run")

    monkeypatch.setattr(LocalBackend, "observe_results", die_after_first_batch)
    with Session(LocalConfig(workers=0), cache_dir=cache_dir) as session:
        with pytest.raises(KeyboardInterrupt):
            session.run(REQUEST)
    monkeypatch.setattr(LocalBackend, "observe_results", real_observe)
    assert len(DiskResultCache(cache_dir)) == 20

    executed = []
    real_execute = ObservedCell.execute_task

    def counting_execute(self, seed, level, runner=None):
        executed.append(seed)
        return real_execute(self, seed, level, runner)

    monkeypatch.setattr(ObservedCell, "execute_task", counting_execute)
    with Session(LocalConfig(workers=0), cache_dir=cache_dir) as session:
        resumed = session.run(REQUEST)
    assert len(executed) == 40 - 20
    assert (resumed.extra["disk_cache_hits"], resumed.extra["disk_cache_misses"]) == (20, 20)
    assert_golden(resumed, tmp_path / "resumed")


def test_a_checkpoint_of_another_observer_set_is_a_different_suite(tmp_path):
    """A store written under another observer set serves the cells it
    shares and executes the rest: fig16 + table4 observe 8 of fig16's
    32 smoke cells together, and a cell's key names its observers, so
    fig16 alone is served the other 24 and renders its golden bytes."""
    cache_dir = str(tmp_path / "cache")
    with Session(LocalConfig(workers=0), cache_dir=cache_dir) as session:
        session.run(RunRequest(("fig16", "table4"), smoke=True))
    with Session(LocalConfig(workers=0), cache_dir=cache_dir) as session:
        alone = session.run(RunRequest(("fig16",), smoke=True))
    assert (alone.extra["disk_cache_hits"], alone.extra["disk_cache_misses"]) == (24, 8)
    written = {path.name: path for path in write_bundle(alone, tmp_path / "alone")}
    assert written["fig16.json"].read_bytes() == (GOLDEN_DIR / "fig16.json").read_bytes()


# -- observation is the same in-process and after the round trip ---------


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_observed_task_equals_observe_in_process_and_stats_equal_a_stats_run(draw_seed):
    """For any generated cell: every registered observer applied
    in-process to ``execute_cell(..., TRACE)`` equals what comes back
    through the observed task after a pickle round trip, and the stats
    beside it equal a plain stats-level run's."""
    scenario, seed = draw_cell(random.Random(draw_seed))
    observers = tuple((exp_id, get_spec(exp_id).observe) for exp_id in OBSERVING)
    task = ObservedCell(scenario, ArtifactLevel.TRACE, observers)
    [(index, shipped)] = pickle.loads(
        pickle.dumps(run_cell_chunk(group_cells([(7, task, seed)]), "stats"))
    )
    assert index == 7 and type(shipped) is ObservedArtifacts
    assert shipped.level is ArtifactLevel.STATS and shipped.trace_records is None
    traced = execute_cell(scenario, seed, ArtifactLevel.TRACE)
    assert shipped.observed == {exp_id: observe(traced) for exp_id, observe in observers}
    plain = execute_cell(scenario, seed, ArtifactLevel.STATS)
    assert (shipped.client_stats, shipped.server_stats, shipped.duration_ms) == (
        plain.client_stats, plain.server_stats, plain.duration_ms
    )


# -- what the plan says --------------------------------------------------


def test_shared_cells_carry_both_observers_once():
    plan = SuiteRunner().plan(["fig16", "table4", "fig6"], smoke=True)
    fig16, table4, fig6 = plan.experiments
    shared = set(fig16.slots) & set(table4.slots)
    assert len(shared) == 8  # table4 is fig16's WFC / 9 ms column
    for slot, (cell, dispatched) in enumerate(zip(plan.unique_cells, plan.dispatch_cells)):
        assert type(cell.scenario) is Scenario  # unique_cells speak plain (scenario, seed)
        if slot in shared:
            assert [exp_id for exp_id, _ in dispatched.scenario.observers] == ["fig16", "table4"]
            assert dispatched.scenario.sources == {Source.CLIENT_QLOG, Source.CLIENT_TO_SERVER}
        elif slot in fig16.slots:
            assert [exp_id for exp_id, _ in dispatched.scenario.observers] == ["fig16"]
            assert dispatched.scenario.sources == {Source.CLIENT_QLOG}
        else:
            assert dispatched is cell  # nobody observes it: a plain stats cell
        if dispatched is not cell:
            assert dispatched.scenario.scenario is cell.scenario and dispatched.seed == cell.seed
    assert "32 of 64 cells observed: fig16, table4" in plan.describe()
    assert "observed" not in SuiteRunner().plan(["fig6"], smoke=True).describe()


def test_repetitions_of_a_scenario_share_one_observed_cell():
    """Chunk grouping pickles a scenario once per chunk and the runner
    keeps one scaffold per scenario *object*; both need the wrapper to
    be shared like the scenario it wraps is."""
    plan = SuiteRunner().plan(["fig16"], overrides={"fig16": {"repetitions": 3}}, smoke=True)
    wrappers = [cell.scenario for cell in plan.dispatch_cells]
    assert all(a is b is c for a, b, c in zip(*[iter(wrappers)] * 3))
    assert len({id(w) for w in wrappers}) == len(wrappers) // 3
    indexed = [(i, c.scenario, c.seed) for i, c in enumerate(plan.dispatch_cells)]
    assert len(group_cells(indexed)) == len(wrappers) // 3


def test_stats_only_plans_are_what_they_were():
    """``to_dict()`` and the dispatched cells of a selection nobody
    observes do not know observers exist."""
    plan = SuiteRunner().plan(["fig6", "fig12"], smoke=True)
    assert plan.dispatch_cells is plan.unique_cells
    assert plan.to_dict() == {
        "experiments": [
            {"id": "fig6", "kind": "matrix", "artifact_level": "stats", "cells": 32},
            {"id": "fig12", "kind": "matrix", "artifact_level": "stats", "cells": 64},
        ],
        "total_cells": 96,
        "unique_cells": 64,
        "shared_cells": 32,
        "artifact_level": "stats",
    }


def test_observed_task_key_names_scenario_level_and_observers():
    scenario = Scenario()
    fig16, table4 = get_spec("fig16").observe, get_spec("table4").observe
    task = ObservedCell(scenario, ArtifactLevel.TRACE, (("fig16", fig16), ("table4", table4)))
    assert task.task_key() == (
        "observed-cell",
        scenario_key(scenario),
        "trace",
        (
            ("fig16", "repro.experiments.fig16_pto_improvement._first_pto"),
            ("table4", "repro.experiments.table4_client_defaults.observed_second_flight_indices"),
        ),
    )
    assert task.task_key() != ObservedCell(
        scenario, ArtifactLevel.TRACE, (("fig16", fig16),)
    ).task_key()
    narrow = ObservedCell(scenario, task.level, task.observers, frozenset({Source.CLIENT_QLOG}))
    assert narrow.task_key() == task.task_key()  # what is retained names no value

    class Opaque(LossPattern):  # defeats value identity
        def should_drop(self, index, size):
            return False

    uncacheable = Scenario(server_to_client_loss=Opaque())
    assert scenario_key(uncacheable) is None
    assert ObservedCell(uncacheable, ArtifactLevel.TRACE, (("fig16", fig16),)).task_key() is None


#: ``cell_fingerprint`` of the first smoke cell each selection plans.
#: fig11's is as computed at 0a6bbf9 — the commit before a cell knew its
#: sources — and a warm ``cache_dir`` written there must stay a hit.
#: fig16 and table4 cells end once their observers are answered, so
#: their keys name the predicates and moved with that change: a halted
#: cell's stats are a prefix, never to be served as a whole run's.
PARENT_FINGERPRINTS = {
    ("fig11",): "6cc1fffadea0b304ba08ba1665cd6ff065a5bb690e036e044441d6564fcb55f8",
    ("fig16",): "2a6a8084b4b3acf4e505735dcad2ed8dd2908fbc1797606f2ae6070fd4fbd017",
    ("fig16", "table4"): "195e8e3007a1ee215a307594425e3895c31bd74335bbc8b1ea27f89bfe416573",
}


@pytest.mark.parametrize("selection", sorted(PARENT_FINGERPRINTS), ids="+".join)
def test_observed_cell_fingerprints_are_the_parent_commits(selection):
    plan = SuiteRunner().plan(list(selection), smoke=True)
    cell = next(
        cell for cell in plan.dispatch_cells
        if [exp_id for exp_id, _ in cell.scenario.observers] == list(selection)
    )
    assert (cell.scenario.scenario.client, cell.seed) == ("aioquic", 0)
    fingerprint = cell_fingerprint(cell.scenario, cell.seed, ArtifactLevel.STATS)
    assert fingerprint == PARENT_FINGERPRINTS[selection]


def _no_cells(params):
    return []


def _no_rows(results, params):
    return ExperimentResult(experiment_id="probe", title="probe", headers=[], rows=[])


def test_a_spec_above_stats_must_declare_a_module_level_observe():
    def spec(**kwargs):
        return ExperimentSpec(
            id="probe", title="probe", paper="-", kind=KIND_MATRIX,
            cells=_no_cells, aggregate=_no_rows, **kwargs,
        )

    reads = (Source.CLIENT_QLOG,)
    for level in (ArtifactLevel.TRACE, ArtifactLevel.FULL):
        with pytest.raises(ValueError, match="needs an observe"):
            spec(artifact_level=level, reads=reads)
    with pytest.raises(ValueError, match="module-level"):
        spec(artifact_level=ArtifactLevel.TRACE, observe=lambda artifacts: 0, reads=reads)
    assert spec(artifact_level=ArtifactLevel.TRACE, observe=endpoint_names, reads=reads).observe
    assert spec(artifact_level=ArtifactLevel.STATS).observe is None


def test_a_spec_reads_sources_exactly_when_it_is_above_stats():
    """One statement, not two that can disagree: ``artifact_level`` and
    ``reads`` are checked against each other where the spec is built."""

    def spec(level, **kwargs):
        return ExperimentSpec(
            id="probe", title="probe", paper="-", kind=KIND_MATRIX, artifact_level=level,
            cells=_no_cells, aggregate=_no_rows, **kwargs,
        )

    for level in (ArtifactLevel.TRACE, ArtifactLevel.FULL):
        with pytest.raises(ValueError, match="declares the sources"):
            spec(level, observe=endpoint_names)  # above stats, nothing declared
    with pytest.raises(ValueError, match="unknown source"):
        spec(ArtifactLevel.TRACE, observe=endpoint_names, reads=("client_qlog",))
    with pytest.raises(ValueError, match="declares the sources"):
        spec(ArtifactLevel.STATS, reads=(Source.CLIENT_QLOG,))  # nothing observes
    with pytest.raises(ValueError, match="declares the sources"):
        spec(ArtifactLevel.STATS, observe=endpoint_names, reads=(Source.CLIENT_QLOG,))
    with pytest.raises(ValueError, match="declares the sources"):
        wild_probe_spec("probe-wild", raises_on_a_pass, reads=(Source.CLIENT_QLOG,))
    declared = spec(ArtifactLevel.TRACE, observe=endpoint_names, reads=tuple(Source))
    assert declared.describe()["reads"] == [
        "client qlog", "server qlog", "client->server capture", "server->client capture",
    ]


# -- a broken observer is the experiment's bug, typed, on every path -----


def endpoint_names(artifacts):
    """Reads the live endpoints: only ``full`` retention has them."""
    return (artifacts.result.client.name, artifacts.result.server.name)


def raises_on_one_cell(artifacts):
    if (artifacts.scenario.client, artifacts.seed) == ("quic-go", 1):
        raise LookupError("no such event in this qlog")
    return artifacts.seed


def returns_a_lock_on_one_cell(artifacts):
    if (artifacts.scenario.client, artifacts.seed) == ("quiche", 0):
        return threading.Lock()
    return artifacts.seed


def probe_cells(params):
    return expand_cells([Scenario(client="quic-go"), Scenario(client="quiche")], 2)


def probe_aggregate(results, params):
    return ExperimentResult(
        experiment_id=params["id"], title="probe", headers=["value"],
        rows=[[value] for value in results],
    )


def probe_spec(exp_id, observe, level=ArtifactLevel.TRACE, reads=(Source.CLIENT_QLOG,)):
    """A throw-away observing spec; never registered."""
    return ExperimentSpec(
        id=exp_id, title="probe", paper="-", kind=KIND_MATRIX, artifact_level=level,
        cells=probe_cells, aggregate=probe_aggregate, observe=observe, reads=reads,
        defaults={"id": exp_id},
    )


def run_probe(path, spec):
    if path == "fleet":
        session = fleet_session(workers=1)
        runner = SuiteRunner(backend=session._backend)
    else:
        session = Session()
        runner = SuiteRunner(workers=2 if path == "pool" else 0)
    with session:
        return runner.run([spec])


def raises_on_a_pass(outcome):
    raise LookupError(f"no such CDN among {len(outcome.records)} probes")


def wild_probe_cells(params):
    return [Cell(ScanPass(500, "Hamburg"), 1)]


def wild_probe_spec(exp_id, observe, **kwargs):
    """A throw-away wild spec over one small scan pass; never registered."""
    return ExperimentSpec(
        id=exp_id, title="probe", paper="-", kind=KIND_WILD, artifact_level=ArtifactLevel.STATS,
        cells=wild_probe_cells, aggregate=probe_aggregate, observe=observe,
        defaults={"id": exp_id}, **kwargs,
    )


@pytest.mark.parametrize("path", ["serial", "pool", "fleet"])
def test_a_raising_observer_surfaces_as_one_typed_error(path):
    with pytest.raises(ObserveError) as excinfo:
        run_probe(path, probe_spec("probe-raises", raises_on_one_cell))
    error = excinfo.value
    assert (error.experiment_id, error.seed) == ("probe-raises", 1)
    assert error.scenario == Scenario(client="quic-go").describe()
    assert "LookupError('no such event in this qlog')" in error.cause
    assert str(error).startswith("probe-raises: observe failed on quic-go/h1 WFC")
    assert error.exit_code == 10


@pytest.mark.parametrize("path", ["serial", "pool", "fleet"])
def test_a_raising_wild_observer_surfaces_as_the_same_typed_error(path):
    """A scan pass is observed, and fails, the way a simulator cell is."""
    with pytest.raises(ObserveError) as excinfo:
        run_probe(path, wild_probe_spec("probe-wild", raises_on_a_pass))
    error = excinfo.value
    assert (error.experiment_id, error.seed) == ("probe-wild", 1)
    assert error.scenario == ScanPass(500, "Hamburg").describe()
    assert "LookupError('no such CDN among" in error.cause
    assert str(error).startswith("probe-wild: observe failed on analytic scan of 500 domains")
    assert error.exit_code == 10


def study_probe_cells(params):
    return [Cell(StudyPass("Sao Paulo", 1), 1)]


def test_a_raising_study_observer_names_the_study():
    """A Cloudflare study pass fails under its own description."""
    spec = ExperimentSpec(
        id="probe-study", title="probe", paper="-", kind=KIND_WILD,
        artifact_level=ArtifactLevel.STATS, cells=study_probe_cells,
        aggregate=probe_aggregate, observe=raises_on_a_pass, defaults={"id": "probe-study"},
    )
    with pytest.raises(ObserveError) as excinfo:
        run_probe("serial", spec)
    assert excinfo.value.scenario == "1-day Cloudflare study from Sao Paulo"
    assert str(excinfo.value).startswith("probe-study: observe failed on 1-day Cloudflare study")


def server_bytes_delivered(artifacts):
    """Reads the server→client capture, whatever its spec declares."""
    return sum(r.size for r in artifacts.tracer.filter(link="server->client", dropped=False))


def server_metric_updates(artifacts):
    return len(artifacts.read(Source.SERVER_QLOG))


@pytest.mark.parametrize("path", ["serial", "pool", "fleet"])
@pytest.mark.parametrize(
    "observe, declared, missing",
    [
        (server_bytes_delivered, Source.CLIENT_TO_SERVER, "server->client capture"),
        (server_bytes_delivered, Source.SERVER_QLOG, "server->client capture"),
        (server_metric_updates, Source.CLIENT_QLOG, "server qlog"),
    ],
    ids=["other-link", "no-capture", "other-qlog"],
)
def test_reading_an_undeclared_source_fails_the_cell_and_names_it(path, observe, declared, missing):
    """Not ``0`` bytes and not ``[]``: what a cell did not retain is
    absent, and the observer that reads it anyway is a broken one."""
    with pytest.raises(ObserveError) as excinfo:
        run_probe(path, probe_spec("probe-undeclared", observe, reads=(declared,)))
    error = excinfo.value
    assert error.experiment_id == "probe-undeclared"  # every cell fails; any may be first
    assert (error.scenario, error.seed) in {
        (cell.scenario.describe(), cell.seed) for cell in probe_cells({})
    }
    assert f"the {missing} was not retained" in error.cause
    assert error.exit_code == 10


def test_a_declared_read_is_what_a_retain_everything_cell_reads():
    for observe, source in (
        (server_bytes_delivered, Source.SERVER_TO_CLIENT),
        (server_metric_updates, Source.SERVER_QLOG),
    ):
        report = run_probe("serial", probe_spec("probe-declared", observe, reads=(source,)))
        everything = [
            [observe(execute_cell(cell.scenario, cell.seed, ArtifactLevel.TRACE))]
            for cell in probe_cells({})
        ]
        assert report.results["probe-declared"].rows == everything
        assert all(value > 0 for [value] in everything)


@pytest.mark.parametrize("path", ["serial", "pool", "fleet"])
def test_an_unpicklable_observation_fails_its_cell_with_the_same_error(path):
    expected = "probe-lock: observe failed on quiche.* seed 0"
    with pytest.raises(ObserveError, match=expected) as excinfo:
        run_probe(path, probe_spec("probe-lock", returns_a_lock_on_one_cell))
    assert "pickle" in excinfo.value.cause


def test_the_fleet_survives_a_broken_observer():
    """The ERROR frame fails the job, not the connection: the same
    worker serves the next suite."""
    with fleet_session(workers=1) as session:
        runner = SuiteRunner(backend=session._backend)
        with pytest.raises(ObserveError):
            runner.run([probe_spec("probe-raises", raises_on_one_cell)])
        report = runner.run([probe_spec("probe-ok", endpoint_names, ArtifactLevel.FULL)])
        assert session.backend_stats.workers_lost == 0
    assert report.results["probe-ok"].rows == [[("client", "server")]] * 4


def test_full_level_observers_pool_checkpoint_and_cache_like_any_other(tmp_path):
    """``full`` retention keeps live endpoints, which cannot leave their
    process — and never have to: the observer reads them where they
    are, so a full-level spec pools and caches (it used to be refused by
    both)."""
    spec = probe_spec("probe-full", endpoint_names, ArtifactLevel.FULL)
    cache_dir = str(tmp_path / "cache")
    first = SuiteRunner(workers=2, disk_cache=cache_dir).run([spec])
    assert first.results["probe-full"].rows == [[("client", "server")]] * 4
    assert len(DiskResultCache(cache_dir)) == 4
    cached = SuiteRunner(workers=0, disk_cache=cache_dir).run([spec])
    assert cached.extra["disk_cache_hits"] == 4
    assert cached.to_dict() == first.to_dict()
