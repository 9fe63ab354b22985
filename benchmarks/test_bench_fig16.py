"""Regenerate Figure 16 (first-PTO improvement vs RTT)."""

from repro.api import run_experiment


def test_bench_fig16():
    result = run_experiment(
        "fig16",
        repetitions=5,
        rtts_ms=(9.0, 50.0, 100.0),
    )
    # Improvement roughly constant across RTTs per client, in the
    # paper's 7..25 ms band for the well-behaved implementations.
    per_client = {}
    for client, rtt, wfc, iack, improvement in result.rows:
        if improvement is not None:
            per_client.setdefault(client, []).append(improvement)
    for client in ("quic-go", "neqo", "ngtcp2", "aioquic"):
        values = per_client[client]
        assert all(4.0 <= v <= 30.0 for v in values), (client, values)
        assert max(values) - min(values) < 10.0, (client, values)
