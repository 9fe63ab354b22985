"""The ``python -m repro`` CLI: list/plan/run and the JSON bundle."""

import json

import pytest

from repro.api import ServiceError
from repro.api.client import parse_service_address
from repro.cli import build_parser, cmd_worker, experiments_markdown, main
from repro.experiments import ExperimentResult
from repro.experiments.registry import REGISTRY


def test_list_renders_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for experiment_id in REGISTRY.ids():
        assert experiment_id in out


def test_list_markdown_is_the_experiments_index(capsys):
    assert main(["list", "--markdown"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# Experiments")
    assert "| fig6 | Figure 6 | matrix | stats |" in out
    assert "| table4 | Table 4 | matrix | trace |" in out
    assert experiments_markdown() in out


def test_plan_json_reports_dedup(capsys):
    assert main(["plan", "fig6", "fig12", "--smoke", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_cells"] == 96
    assert payload["unique_cells"] == 64
    assert payload["shared_cells"] == 32


def test_plan_unknown_experiment_exits_3(capsys):
    assert main(["plan", "fig99"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: unknown experiment")


def test_run_invalid_override_exits_4(capsys):
    assert main(["run", "fig6", "--smoke", "--param", "fig6.nope=1"]) == 4
    assert "unknown parameter 'nope'" in capsys.readouterr().err


def test_run_override_for_unselected_experiment_exits_4(capsys):
    assert main(["run", "fig6", "--smoke", "--param", "fig12.rtt_ms=50"]) == 4
    assert "not in the selection" in capsys.readouterr().err


def test_param_flag_overrides_parameters(capsys):
    assert main(
        ["run", "fig6", "--smoke", "--param", "fig6.rtt_ms=50"]
    ) == 0
    assert "@50ms RTT" in capsys.readouterr().out


def test_param_flag_usage_errors_exit_2(capsys):
    for bad in ("rtt_ms=50", "fig6.rtt_ms"):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig6", "--param", bad])
        assert excinfo.value.code == 2
        assert "EXP.key=value" in capsys.readouterr().err
    # The cell-engine flag is gone, not ignored; so are the spill flags.
    for removed in (
        ["run", "fig6", "--engine", "batch"],
        ["run", "fig16", "--smoke", "--spill", "always"],
        ["run", "fig16", "--smoke", "--spill-dir", "spill"],
        ["serve", "--spill", "never"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(removed)
        assert excinfo.value.code == 2


def test_worker_heartbeat_must_be_finite_and_positive(capsys):
    # 0, a negative value or nan would make the beat thread send in a
    # tight loop; inf would kill it. All are refused before any dial.
    for bad in ("0", "-1", "nan", "inf"):
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--connect", "127.0.0.1:1", "--retry", "0", "--heartbeat", bad])
        assert excinfo.value.code == 2
        assert "--heartbeat" in capsys.readouterr().err


def test_worker_retry_must_be_finite_and_not_negative(capsys):
    # nan would never reach the dial deadline, so the worker would dial
    # forever; a negative or infinite window is no window either.
    for bad in ("nan", "-1", "inf"):
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--connect", "127.0.0.1:1", "--retry", bad])
        assert excinfo.value.code == 2
        assert "--retry" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad",
    ["nohostport", "host:", ":7399", "[]:7399", "host:port", "host: 80", "host:0", "host:65536"],
)
def test_a_bad_address_is_refused_alike_by_worker_and_client(bad, capsys):
    """``repro worker --connect`` and the service client split HOST:PORT
    with one function: what one refuses the other refuses, the CLI with
    a usage error (exit 2), the client with a ``ServiceError``."""
    with pytest.raises(SystemExit) as excinfo:
        main(["worker", "--connect", bad, "--retry", "0"])
    assert excinfo.value.code == 2
    assert "--connect" in capsys.readouterr().err
    with pytest.raises(ServiceError, match="service address"):
        parse_service_address(bad)


def test_removed_scan_window_and_worker_rejoin_flags_exit_2():
    # The scan window is 2 x the backend's parallelism; a worker's one
    # dial window is --retry.
    for removed in (
        ["scan", "--window", "4"],
        ["worker", "--connect", "127.0.0.1:1", "--rejoin", "5"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(removed)
        assert excinfo.value.code == 2


def test_worker_no_cache_still_parses_and_is_hidden(capsys):
    args = build_parser().parse_args(["worker", "--connect", "h:1", "--no-cache"])
    assert args.func is cmd_worker
    with pytest.raises(SystemExit) as excinfo:
        main(["worker", "--help"])
    assert excinfo.value.code == 0
    help_text = capsys.readouterr().out
    assert "--no-cache" not in help_text and "--cache-entries" not in help_text
    with pytest.raises(SystemExit) as excinfo:
        main(["worker", "--connect", "h:1", "--cache-entries", "8"])
    assert excinfo.value.code == 2


def test_events_flag_streams_run_events(capsys):
    assert main(["run", "table5", "--events"]) == 0
    out = capsys.readouterr().out
    assert "event: suite_planned" in out
    assert "event: experiment_completed experiment_id=table5" in out
    assert "event: suite_completed" in out


def test_run_smoke_writes_bundle(tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert (
        main(
            [
                "run", "fig6", "table5", "--smoke",
                "--out", str(out_dir),
            ]
        )
        == 0
    )
    rendered = capsys.readouterr().out
    assert "[fig6]" in rendered and "[table5]" in rendered
    result = ExperimentResult.from_json((out_dir / "fig6.json").read_text())
    assert result.experiment_id == "fig6"
    assert len(result.rows) == 8
    suite = json.loads((out_dir / "suite.json").read_text())
    assert suite["plan"]["experiments"][0]["id"] == "fig6"
    assert suite["executed_cells"] == suite["plan"]["unique_cells"]
    assert set(suite["results"]) == {"fig6", "table5"}


def test_run_all_expands_registry(capsys):
    assert main(["plan", "all", "--smoke"]) == 0
    out = capsys.readouterr().out
    for experiment_id in REGISTRY.ids():
        assert experiment_id in out
