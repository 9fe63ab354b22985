"""Regenerate Figure 6 (first-server-flight tail loss)."""

from repro.api import run_experiment


def test_bench_fig6_http1():
    result = run_experiment("fig6", http="h1", repetitions=10)
    rows = result.row_map()
    # IACK penalty around the server's 200 ms default PTO (paper:
    # 177-188 ms) for all clients except the aborting quiche.
    for client in ("aioquic", "mvfst", "neqo", "ngtcp2", "quic-go"):
        assert 140.0 <= rows[client][3] <= 220.0
    # quiche aborts every IACK run over HTTP/1.1.
    aborts = rows["quiche"][4]
    assert aborts.endswith("/10")
