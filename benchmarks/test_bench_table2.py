"""Benchmark: regenerate Table 2 (deployment guidelines)."""

from benchmarks.conftest import run_and_render
from repro.api import run_experiment


def test_bench_table2(benchmark):
    result = run_and_render(benchmark, run_experiment, "table2")
    # The advisor must match the published table cell for cell.
    assert result.extra["matches"]
