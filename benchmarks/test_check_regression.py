"""The benchmark regression gate only diffs machine-stable ratios.

Worker-scaling ratios (``speedup_4w_vs_serial``) depend on the host's
core count and load, so gating them against a baseline produced on a
different machine both flakes and masks regressions. Each benchmark
entry therefore declares its ``stable_ratios`` — ratios whose two legs
run at identical parallelism — and the gate tracks exactly those.
"""

import json
from pathlib import Path

import pytest

from benchmarks.check_regression import main, tracked_ratios

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_tracked_ratios_honor_stable_marker():
    report = {
        "benchmarks": {
            "a": {
                "speedup_2w_vs_serial": 2.0,  # unstable: not declared
                "speedup_stats_vs_serial": 1.5,
                "stable_ratios": ["speedup_stats_vs_serial"],
            },
            "b": {"speedup_x_vs_y": 1.2},  # legacy entry, no marker
            "c": {"speedup_any_vs_all": 9.9, "stable_ratios": []},
        }
    }
    assert tracked_ratios(report) == {
        "a.speedup_stats_vs_serial": 1.5,
        "b.speedup_x_vs_y": 1.2,
    }


def test_committed_baseline_gates_only_same_parallelism_ratios():
    baseline = json.loads((REPO_ROOT / "BENCH_parallel.json").read_text())
    tracked = tracked_ratios(baseline)
    assert set(tracked) == {
        "fig6_standalone.speedup_stats_vs_serial",
        "table1.speedup_batch_vs_serial",
        "suite_fig12_fig6.speedup_suite_vs_standalone",
        "suite_distributed.speedup_distributed_2w_vs_local_2w",
        "profile_sweep_distributed.speedup_profiles_distributed_2w_vs_local_2w",
        "suite_distributed_cached.speedup_cached_vs_cold",
        "suite_distributed_v4.result_bytes_raw_vs_wire",
        "stream_scan.speedup_stream_distributed_2w_vs_local_2w",
        "stream_scan.rss_flatness_1x_vs_10x",
    }
    # hardware-dependent worker-scaling ratios must never be gated
    assert not any(key.endswith("w_vs_serial") for key in tracked)


def test_declared_but_absent_stable_ratio_is_an_error(tmp_path, capsys):
    """A typo'd or stale stable_ratios name must fail the gate loudly,
    not silently shrink the tracked set."""
    report = {"benchmarks": {"a": {"stable_ratios": ["speedup_renamed_vs_gone"]}}}
    with pytest.raises(ValueError, match="missing or non-numeric"):
        tracked_ratios(report)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(report))
    assert main([str(path), "--baseline", str(path)]) == 2
    assert "missing or non-numeric" in capsys.readouterr().out


def _write(tmp_path, name, entry):
    path = tmp_path / name
    path.write_text(json.dumps({"benchmarks": {"bench": entry}}))
    return str(path)


def test_gate_passes_within_tolerance_and_fails_on_regression(tmp_path, capsys):
    baseline = _write(
        tmp_path, "base.json",
        {"speedup_stats_vs_serial": 2.0, "stable_ratios": ["speedup_stats_vs_serial"]},
    )
    ok = _write(
        tmp_path, "ok.json",
        {"speedup_stats_vs_serial": 1.5, "stable_ratios": ["speedup_stats_vs_serial"]},
    )
    slow = _write(
        tmp_path, "slow.json",
        {"speedup_stats_vs_serial": 1.2, "stable_ratios": ["speedup_stats_vs_serial"]},
    )
    missing = _write(tmp_path, "missing.json", {"stable_ratios": []})
    assert main([ok, "--baseline", baseline, "--tolerance", "0.35"]) == 0
    assert main([slow, "--baseline", baseline, "--tolerance", "0.35"]) == 1
    assert main([missing, "--baseline", baseline, "--tolerance", "0.35"]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "MISSING" in out
