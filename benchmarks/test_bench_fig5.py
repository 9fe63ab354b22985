"""Regenerate Figure 5 (TTFB under the amplification limit)."""

from repro.api import run_experiment


def test_bench_fig5_http3():
    result = run_experiment("fig5", http="h3", repetitions=10)
    rows = result.row_map()
    # neqo and ngtcp2 improve by ~10 ms (paper: 9.6 / 10.0).
    assert 6.0 <= rows["neqo"][3] <= 15.0
    assert 6.0 <= rows["ngtcp2"][3] <= 15.0
    # picoquic: "equal performance".
    assert abs(rows["picoquic"][3]) <= 3.0
    # quiche: "negative effects when IACK is enabled".
    assert rows["quiche"][3] < 0.0
