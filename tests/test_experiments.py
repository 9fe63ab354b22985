"""Smoke and correctness tests for the experiment modules (scaled)."""

import pytest

from repro.api import run_experiment
from repro.experiments import EXPERIMENT_INDEX


def test_index_lists_every_paper_artifact():
    expected = {f"fig{i}" for i in (2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)}
    expected |= {f"table{i}" for i in range(1, 6)}
    expected |= {"lab_cc", "lab_rtt", "lab_ge"}  # recovery-lab sweeps
    assert set(EXPERIMENT_INDEX) == expected


def test_fig2_improvement_is_three_delta_t():
    result = run_experiment("fig2")
    rows = result.row_map()
    assert rows["9 ms"][3] == pytest.approx(12.0)
    assert rows["25 ms"][3] == pytest.approx(12.0)
    assert "fig2" in result.render()


def test_fig4_zone_and_reduction_shapes():
    result = run_experiment("fig4", rtt_values_ms=(1.0, 5.0, 25.0, 100.0))
    points = result.extra["points"]
    by_key = {(p.delta_t_ms, p.rtt_ms): p for p in points}
    assert by_key[(25.0, 5.0)].spurious
    assert not by_key[(25.0, 100.0)].spurious
    assert by_key[(9.0, 1.0)].pto_reduction_rtt_units == pytest.approx(27.0)


def test_fig7_scaled_run_matches_direction():
    result = run_experiment("fig7", http="h1", repetitions=6)
    rows = result.row_map()
    for client in ("quic-go", "neqo"):
        assert rows[client][3] > 0
    assert abs(rows["picoquic"][3]) < 5.0


def test_fig9_scaled_run():
    result = run_experiment("fig9", days=1)
    assert result.extra["coalesced_faster"]
    assert result.extra["samples"] > 1000


def test_table1_scaled_run():
    result = run_experiment(
        "table1", list_size=20_000, days=1, vantage_names=["Sao Paulo"]
    )
    rows = result.row_map()
    assert rows["Cloudflare"][2] > 95.0
    assert rows["Fastly"][2] == 0.0


def test_table2_matches_paper_exactly():
    assert run_experiment("table2").extra["matches"]


def test_table4_registry_columns_match_paper():
    result = run_experiment("table4", repetitions=1)
    for row in result.rows:
        assert row[1] == row[2]  # default PTO vs paper
        assert row[3] == row[4]  # flight indices vs paper


def test_table5_matches_paper_exactly():
    assert run_experiment("table5").extra["matches"]


def test_render_includes_experiment_id():
    result = run_experiment("table5")
    rendered = result.render()
    assert rendered.startswith("[table5]")
    assert "Cloudflare" in rendered
