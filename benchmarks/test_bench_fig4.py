"""Regenerate Figure 4 (sweet-spot analysis)."""

from repro.api import run_experiment


def test_bench_fig4():
    result = run_experiment("fig4")
    points = result.extra["points"]
    # The reduction in RTT units decreases with the RTT and the
    # spurious zone follows dt > 3 RTT.
    for delta in (1.0, 9.0, 25.0):
        series = [p for p in points if p.delta_t_ms == delta]
        reductions = [p.pto_reduction_rtt_units for p in series]
        assert reductions == sorted(reductions, reverse=True)
        for p in series:
            assert p.spurious == (delta > 3.0 * p.rtt_ms)
