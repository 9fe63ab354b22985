"""Regenerate Figure 2 (PTO evolution)."""

from repro.api import run_experiment


def test_bench_fig2():
    result = run_experiment("fig2")
    rows = result.row_map()
    # 3 x Δt = 12 ms improvement at both RTTs.
    assert rows["9 ms"][3] == 12.0
    assert rows["25 ms"][3] == 12.0
