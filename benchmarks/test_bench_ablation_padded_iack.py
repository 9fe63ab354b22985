"""Ablation: padded instant ACK (Cloudflare's path-MTU probing).

§5: "Using a padded instant ACK to probe the path MTU, as Cloudflare
implements, needs careful consideration, though, since this consumes
additional amplification budget, which can lead to an overall longer
time until the handshake completes."

The ablation compares an unpadded IACK (48 B) against a 1200 B padded
IACK under the amplification-critical Figure 5 condition: the padding
costs 1152 B of the server's 3,600 B initial budget.
"""

import statistics

from repro.interop import Runner, Scenario
from repro.interop.runner import SIZE_10KB
from repro.quic.certs import LARGE_CERTIFICATE
from repro.quic.server import ServerMode


def _median_ttfb(pad: bool, repetitions: int = 15) -> float:
    runner = Runner()
    scenario = Scenario(
        client="neqo",
        mode=ServerMode.IACK,
        http="h3",
        rtt_ms=9.0,
        delta_t_ms=200.0,
        certificate=LARGE_CERTIFICATE,
        response_size=SIZE_10KB,
        pad_instant_ack=pad,
    )
    results = runner.run_repetitions(scenario, repetitions)
    return statistics.median(r.ttfb_ms for r in results)


def test_bench_ablation_padded_iack():
    unpadded_ms = _median_ttfb(pad=False)
    padded_ms = _median_ttfb(pad=True)
    # Padding must never help here, and may hurt (budget consumption).
    assert padded_ms >= unpadded_ms - 1.0
