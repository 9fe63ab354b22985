"""Regenerate Figure 13 (Fig. 7 across RTTs)."""

from repro.api import run_experiment


def test_bench_fig13():
    result = run_experiment(
        "fig13",
        http="h1",
        repetitions=5,
        rtts_ms=(1.0, 9.0, 20.0, 100.0),
    )
    # IACK improves the TTFB at every RTT for the regular clients.
    for rtt, client, wfc, iack, improvement in result.rows:
        if client in ("quic-go", "neqo", "aioquic") and improvement is not None:
            assert improvement > 0.0, (rtt, client)
