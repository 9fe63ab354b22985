"""Regenerate Figure 7 (second-client-flight loss)."""

from repro.api import run_experiment


def test_bench_fig7_http1():
    result = run_experiment("fig7", http="h1", repetitions=10)
    rows = result.row_map()
    # Paper: improvements 10..28 ms; picoquic does not benefit.
    for client in ("aioquic", "mvfst", "neqo", "ngtcp2", "quic-go", "quiche"):
        assert 5.0 <= rows[client][3] <= 35.0
    assert abs(rows["picoquic"][3]) < 5.0
    # go-x-net shows the largest improvement (paper: 28 ms).
    assert rows["go-x-net"][3] == max(
        row[3] for row in result.rows if row[3] is not None
    )
