"""Benchmark: regenerate Table 5 (AS numbers per CDN)."""

from benchmarks.conftest import run_and_render
from repro.api import run_experiment


def test_bench_table5(benchmark):
    result = run_and_render(benchmark, run_experiment, "table5")
    assert result.extra["matches"]
