"""Benchmark: the parallel runtime on the Figure 6 matrix.

Complements ``bench_parallel.py`` (the serial-vs-parallel wall-clock
study behind ``BENCH_parallel.json``) with a suite-integrated smoke
benchmark: the full fig6 matrix through a 2-worker pool must produce
the same figure as the serial path and post a time.
"""

from benchmarks.conftest import run_and_render
from repro.api import LocalConfig, run, run_experiment
from repro.runtime import SuiteRunner


def test_bench_fig6_parallel_matches_serial(benchmark):
    serial = run_experiment("fig6", http="h1", repetitions=5)
    result = run_and_render(
        benchmark, run_experiment, "fig6",
        http="h1", repetitions=5, backend=LocalConfig(workers=2),
    )
    assert result.rows == serial.rows


def test_bench_fig6_cached_resweep(benchmark, tmp_path):
    """Second regeneration of the figure from a warm disk cache."""
    overrides = {"fig6": {"http": "h1", "repetitions": 5}}
    cold = run("fig6", overrides=overrides, cache_dir=str(tmp_path))

    def resweep():
        return run("fig6", overrides=overrides, cache_dir=str(tmp_path))

    warm = benchmark.pedantic(resweep, rounds=1, iterations=1)
    print()
    print(warm.results["fig6"].render())
    assert warm.extra["disk_cache_hits"] == 80  # 16 scenarios x 5 repetitions
    assert warm.results["fig6"].rows == cold.results["fig6"].rows


def test_bench_suite_dedup_vs_standalone(benchmark):
    """fig6+fig12 as one planned suite: the shared 9 ms cells are
    dispatched once and fig6's figure matches its standalone run."""
    overrides = {
        "fig6": {"repetitions": 3},
        "fig12": {"repetitions": 3, "rtts_ms": (9.0, 100.0)},
    }
    standalone = run_experiment("fig6", http="h1", repetitions=3)

    def suite():
        return SuiteRunner(workers=0).run(["fig6", "fig12"], overrides=overrides)

    report = benchmark.pedantic(suite, rounds=1, iterations=1)
    print()
    print(report.plan.describe())
    assert report.plan.shared_cells == 48  # 16 scenarios x 3 reps
    assert report.results["fig6"].rows == standalone.rows
