"""Regenerate Table 3 (server first-ACK delays)."""

from repro.api import run_experiment


def test_bench_table3():
    result = run_experiment("table3", repetitions=3)
    rows = result.row_map()
    # msquic sends no Initial/Handshake ACKs at all.
    assert rows["msquic"][1] == "- - -"
    # aioquic reports ~3.3 ms; s2n-quic exceeds typical RTTs.
    assert rows["aioquic"][1].startswith("3.3")
    assert float(rows["s2n-quic"][1].split()[0]) > 9.0
    # Exactly 5 of 16 servers acknowledge in the Handshake space.
    with_hs = [row for row in result.rows if row[3] != "- - -"]
    assert len(with_hs) == 5
