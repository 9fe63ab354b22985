"""Benchmark: regenerate Figure 2 (PTO evolution)."""

from benchmarks.conftest import run_and_render
from repro.api import run_experiment


def test_bench_fig2(benchmark):
    result = run_and_render(benchmark, run_experiment, "fig2")
    rows = result.row_map()
    # 3 x Δt = 12 ms improvement at both RTTs.
    assert rows["9 ms"][3] == 12.0
    assert rows["25 ms"][3] == 12.0
