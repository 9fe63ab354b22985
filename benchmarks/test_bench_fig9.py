"""Benchmark: regenerate Figure 9 (Cloudflare week, Sao Paulo)."""

from benchmarks.conftest import run_and_render
from repro.api import run_experiment


def test_bench_fig9(benchmark):
    result = run_and_render(
        benchmark, run_experiment, "fig9", days=3
    )
    rows = result.row_map()
    # Coalesced ACK-SH faster than separate SH; gap ~2.1 ms; daytime
    # gaps exceed nighttime gaps.
    assert result.extra["coalesced_faster"]
    assert 1.2 <= rows["IACK->SH gap"][2] <= 3.5
    assert rows["gap (daytime)"][2] > rows["gap (night)"][2]
