"""Declarative experiment registry, spec resolution, artifact-level
flow-through, and the ExperimentResult JSON round trip."""

import pytest

from repro.api import InvalidOverride, ObserveError, run_experiment
from repro.experiments import EXPERIMENT_INDEX, ExperimentResult
from repro.experiments import fig6_server_flight_loss as fig6
from repro.experiments.registry import REGISTRY, get_spec
from repro.experiments.spec import (
    KIND_MATRIX,
    KIND_WILD,
    CellResults,
    ExperimentSpec,
)
from repro.runtime import ArtifactLevel, execute_cell
from repro.runtime.artifacts import ObservedCell


def test_registry_covers_every_paper_artifact():
    assert set(REGISTRY.ids()) == set(EXPERIMENT_INDEX)
    # 19 paper artifacts + the 3 recovery-lab sweeps.
    assert len(REGISTRY.ids()) == 22


def test_registry_presentation_order_figures_then_tables():
    ids = [spec.id for spec in REGISTRY.specs()]
    assert ids[0] == "fig2"
    assert ids.index("fig10") > ids.index("fig9")  # numeric, not lexical
    # Paper artifacts first, then the recovery-lab extensions.
    assert ids.index("table5") < ids.index("lab_cc")
    assert ids[-1] == "lab_rtt"


def test_every_spec_declares_paper_and_level():
    for spec in REGISTRY.specs():
        # Paper artifacts cite their figure/table; recovery-lab sweeps
        # cite the methodology section they extend.
        assert spec.paper.startswith(("Figure", "Table", "§"))
        assert isinstance(spec.artifact_level, ArtifactLevel)
        params = spec.resolve_params()
        assert isinstance(spec.plan_cells(params), list)


def observing_simulator_specs():
    return [
        spec for spec in REGISTRY.specs() if spec.observe is not None and spec.kind != KIND_WILD
    ]


def test_observing_simulator_specs_declare_what_they_read():
    specs = observing_simulator_specs()
    assert sorted(spec.id for spec in specs) == ["fig11", "fig16", "table4"]
    for spec in specs:
        assert spec.artifact_level is not ArtifactLevel.STATS and len(spec.reads) >= 1
    for spec in REGISTRY.specs():
        if spec not in specs:
            assert spec.reads == () and spec.artifact_level is ArtifactLevel.STATS


@pytest.mark.parametrize(
    "spec, removed",
    [(spec, source) for spec in observing_simulator_specs() for source in spec.reads],
    ids=lambda value: getattr(value, "id", None) or value.name,
)
def test_a_declaration_is_minimal_every_declared_source_is_read(spec, removed):
    """With any one declared source taken away every smoke cell fails
    as a broken observer, naming it — so nothing declared is decorative.
    (That the declaration is sufficient is every golden-bundle test.)"""
    kept = frozenset(spec.reads) - {removed}
    for cell in spec.plan_cells(spec.resolve_params(smoke=True)):
        task = ObservedCell(
            cell.scenario, spec.artifact_level, ((spec.id, spec.observe),), kept
        )
        with pytest.raises(ObserveError) as excinfo:
            execute_cell(task, cell.seed, ArtifactLevel.STATS)
        assert excinfo.value.experiment_id == spec.id
        assert f"the {removed.describe()} was not retained" in excinfo.value.cause


def test_get_spec_unknown_id_raises():
    with pytest.raises(KeyError, match="unknown experiment"):
        get_spec("fig99")


def test_resolve_rejects_unknown_parameter():
    with pytest.raises(ValueError, match="unknown parameter"):
        fig6.SPEC.resolve_params({"reptitions": 3})


def test_resolve_smoke_then_explicit_overrides():
    params = fig6.SPEC.resolve_params({"http": "h3"}, smoke=True)
    assert params["repetitions"] == fig6.SPEC.smoke["repetitions"]
    assert params["http"] == "h3"
    # smoke params must themselves be valid parameter names
    for spec in REGISTRY.specs():
        assert set(spec.smoke) <= set(spec.defaults)


@pytest.mark.parametrize(
    "spec_id, overrides",
    [
        ("fig6", {"repetitions": "2"}),  # str for a number
        ("fig6", {"repetitions": True}),  # bool is not a number
        ("fig6", {"rtt_ms": float("nan")}),
        ("fig6", {"rtt_ms": float("inf")}),
        ("fig6", {"http": 3}),  # number for a str
        ("fig12", {"rtts_ms": "nan"}),  # str for a tuple of numbers
        ("fig12", {"rtts_ms": 9.0}),  # scalar for a tuple
        ("fig12", {"rtts_ms": [9.0, "x"]}),
        ("fig12", {"rtts_ms": [9.0, float("nan")]}),
        ("lab_cc", {"profiles": ["default", 3]}),
        ("table1", {"engine": 1}),  # number for a str
    ],
)
def test_resolve_rejects_override_shaped_unlike_its_default(spec_id, overrides):
    with pytest.raises(InvalidOverride, match="shaped like its default"):
        get_spec(spec_id).resolve_params(overrides)


def test_resolve_accepts_overrides_shaped_like_their_defaults():
    params = get_spec("fig12").resolve_params({"rtts_ms": [9, 50.0], "repetitions": 3})
    assert params["rtts_ms"] == [9, 50.0] and params["repetitions"] == 3
    assert get_spec("fig6").resolve_params({"rtt_ms": 50})["rtt_ms"] == 50
    # A None default declares no shape.
    table1 = get_spec("table1").resolve_params({"vantage_names": ["Sao Paulo"]})
    assert table1["vantage_names"] == ["Sao Paulo"]


def test_a_bool_parameter_takes_only_bools():
    """No registered experiment declares a bool any more (table1's
    ``streamed`` was the last); the shape rule for one stays."""
    spec = ExperimentSpec(
        id="probe", title="probe", paper="-", kind=KIND_MATRIX,
        artifact_level=ArtifactLevel.STATS, cells=lambda params: [],
        aggregate=lambda results, params: None, defaults={"flag": False},
    )
    assert spec.resolve_params({"flag": True})["flag"] is True
    with pytest.raises(InvalidOverride, match="shaped like its default"):
        spec.resolve_params({"flag": 1})


def test_no_execution_context_is_an_experiment_parameter():
    """Where and how wide a run executes never reaches ``params`` (it
    used to be hashed into plan identity through ``workers``)."""
    for spec in REGISTRY.specs():
        assert not {"workers", "streamed", "backend"} & set(spec.defaults), spec.id
    with pytest.raises(TypeError):
        get_spec("fig15").resolve_params(None, workers=2)


def test_wild_experiments_observe_planned_passes_and_measure_nothing_themselves():
    """The wild specs are views of planned scan / study passes: each has
    an ``observe``, plans at least one pass, and its module no longer
    reaches for a scanner, a toplist or a study (its ``aggregate`` used
    to run the whole campaign)."""
    import inspect
    import sys

    wild = [spec for spec in REGISTRY.specs() if spec.kind == "wild"]
    assert [spec.id for spec in wild] == ["fig8", "fig9", "fig10", "fig14", "fig15", "table1"]
    for spec in wild:
        assert spec.observe is not None
        cells = spec.plan_cells(spec.resolve_params(None, smoke=True))
        assert cells and all(hasattr(cell.scenario, "execute_task") for cell in cells)
        source = inspect.getsource(sys.modules[spec.aggregate.__module__])
        for name in ("QScanner", "TrancoGenerator", "CloudflareLongitudinalStudy", "scan_with_engine"):
            assert name not in source, (spec.id, name)
    with pytest.raises(ValueError, match="needs an observe"):
        ExperimentSpec(
            id="probe", title="probe", paper="-", kind="wild",
            artifact_level=ArtifactLevel.STATS, cells=lambda params: [],
            aggregate=lambda results, params: None,
        )


def test_base_seed_override_flows_into_cells():
    spec = get_spec("fig6")
    cells = spec.plan_cells(spec.resolve_params({"repetitions": 2, "base_seed": 7}))
    assert {c.seed for c in cells} == {7, 8}


def test_duplicate_registration_rejected():
    other = ExperimentSpec(
        id="fig6",
        title="imposter",
        paper="Figure 6",
        kind=KIND_MATRIX,
        artifact_level=ArtifactLevel.STATS,
        cells=lambda params: [],
        aggregate=lambda results, params: None,
    )
    with pytest.raises(ValueError, match="registered twice"):
        REGISTRY.register(other)


# -- artifact-level flow-through (regression) --------------------------


def test_trace_spec_level_flows_into_owned_runner():
    """fig11 reads qlog events; its declared trace level must reach the
    runner it creates (the old plumbing silently defaulted to stats)."""
    result = run_experiment("fig11", repetitions=1, response_size=64 * 1024)
    assert result.experiment_id == "fig11"
    for row in result.rows:
        assert row[1] > 0  # packets with new ACKs came from qlog events


# -- ExperimentResult JSON round trip ----------------------------------


def test_result_json_round_trip():
    result = run_experiment("table5")
    restored = ExperimentResult.from_json(result.to_json())
    assert restored.experiment_id == result.experiment_id
    assert restored.title == result.title
    assert restored.headers == result.headers
    assert restored.rows == [list(row) for row in result.rows]
    assert restored.extra["matches"] == result.extra["matches"]
    assert restored.render() == result.render()


def test_result_json_drops_unserializable_extra():
    result = ExperimentResult(
        experiment_id="x",
        title="t",
        headers=["a"],
        rows=[[1]],
        extra={"ok": [1, 2], "bad": object()},
    )
    payload = result.to_dict()
    assert payload["extra"] == {"ok": [1, 2]}
    assert payload["extra_dropped"] == ["bad"]
    restored = ExperimentResult.from_json(result.to_json())
    assert restored.rows == [[1]]
    assert "bad" not in restored.extra


def test_cell_results_groups_requires_positive_size():
    with pytest.raises(ValueError):
        list(CellResults([]).groups(0))
