"""The profile registry: eight clients, sixteen servers.

Client parameters come from the paper's Table 4 (default PTO, second
client flight coalescing), §4 (quirks), and Appendix E (RTT formula
and qlog exposure). The ``coalesced_processing_penalty_ms`` values are
fitted so the WFC-vs-IACK first-RTT-sample difference — and hence the
Figure 7 TTFB improvements of 10..28 ms — match the paper's medians
(improvement ≈ 3 x (server crypto time + client penalty)).

Server profiles encode Table 3: the acknowledgment delay reported in
the first Initial- and Handshake-space ACKs, with msquic sending no
Initial/Handshake ACKs and 11 of 16 stacks sending no Handshake ACK.
"""

from __future__ import annotations

from typing import Dict

from repro.impls.profile import ImplProfile, SecondFlightVariant

# ---------------------------------------------------------------------------
# Client profiles (paper Table 4, §4.1/§4.2, Appendix E/F)
# ---------------------------------------------------------------------------

AIOQUIC = ImplProfile(
    name="aioquic",
    default_pto_ms=200.0,
    second_flight_indices=(2, 3, 4),
    rtt_variant="aioquic",  # "aioquic uses a different formula" (App. E)
    flow_update_interval_bytes=12 * 1024,
    coalesced_processing_penalty_ms=2.7,
    qlog_metrics_exposure=1.0,
    qlog_timestamp_resolution="ms",
)

GO_X_NET = ImplProfile(
    name="go-x-net",
    default_pto_ms=999.0,
    second_flight_indices=(2, 3, 4),
    supports_http3=False,  # "go-x-net ... does not implement HTTP/3" (§3)
    misinit_srtt_probability=0.2,  # "partially initializes ... incorrectly"
    misinit_srtt_ms=90.0,
    coalesced_processing_penalty_ms=6.5,
    penalty_jitter_ms=5.5,  # "median 0.1 ms to 12.7 ms" variation (§4.1)
    flow_update_interval_bytes=16 * 1024,
    qlog_metrics_exposure=1.0,
)

MVFST = ImplProfile(
    name="mvfst",
    default_pto_ms=100.0,
    second_flight_indices=(2, 3, 4),
    anti_deadlock_probe_from_sent_time=True,  # no probes on IACK (§4.1)
    coalesced_processing_penalty_ms=2.4,
    flow_update_interval_bytes=5 * 1024,
    qlog_metrics_exposure=1.0,
    qlog_logs_rtt_variance=False,  # Appendix E
)

NEQO = ImplProfile(
    name="neqo",
    default_pto_ms=300.0,
    second_flight_indices=(2, 3),
    coalesced_processing_penalty_ms=3.0,
    flow_update_interval_bytes=36 * 1024,
    qlog_metrics_exposure=0.5,  # exposes a smaller fraction (App. E)
    qlog_logs_rtt_variance=False,
)

NGTCP2 = ImplProfile(
    name="ngtcp2",
    default_pto_ms=300.0,
    second_flight_indices=(2, 3, 4),
    coalesced_processing_penalty_ms=3.0,
    flow_update_interval_bytes=24 * 1024,
    qlog_metrics_exposure=0.5,
)

PICOQUIC = ImplProfile(
    name="picoquic",
    default_pto_ms=250.0,
    second_flight_indices=(2, 3, 4, 5),
    use_initial_ack_rtt_sample=False,  # "ignores the lower RTT" (§4.2)
    anti_deadlock_probe_from_sent_time=True,  # no probes on IACK (§4.1)
    coalesced_processing_penalty_ms=3.0,
    flow_update_interval_bytes=50 * 1024,
    qlog_metrics_exposure=0.5,
    qlog_logs_rtt_variance=False,
    qlog_timestamp_resolution="us",
)

QUIC_GO = ImplProfile(
    name="quic-go",
    default_pto_ms=200.0,
    second_flight_indices=(2, 3, 4),
    coalesced_processing_penalty_ms=2.7,
    flow_update_interval_bytes=16 * 1024,
    qlog_metrics_exposure=0.5,
)

QUICHE = ImplProfile(
    name="quiche",
    default_pto_ms=999.0,
    second_flight_indices=(2,),
    second_flight_variants=(
        SecondFlightVariant(probability=0.7, datagrams=1),
        SecondFlightVariant(probability=0.3, datagrams=2),
    ),
    drops_ping_ack_coalesced=True,  # §4.1 Figure 5 discussion
    aborts_on_duplicate_cid_retirement=True,  # §4.2 (HTTP/1.1 only)
    coalesced_processing_penalty_ms=6.7,
    flow_update_interval_bytes=8 * 1024,
    qlog_metrics_exposure=1.0,
)

CLIENT_PROFILES: Dict[str, ImplProfile] = {
    p.name: p
    for p in (AIOQUIC, GO_X_NET, MVFST, NEQO, NGTCP2, PICOQUIC, QUIC_GO, QUICHE)
}

#: The stable ordering used by the paper's figures.
CLIENT_NAMES = tuple(sorted(CLIENT_PROFILES))


def client_profile(name: str) -> ImplProfile:
    """Look up a client profile by implementation name."""
    try:
        return CLIENT_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown client implementation {name!r}; "
            f"known: {', '.join(sorted(CLIENT_PROFILES))}"
        ) from None


# ---------------------------------------------------------------------------
# Server profiles (paper Table 3, Appendix D)
# ---------------------------------------------------------------------------

def _server(
    name: str,
    initial_ack_delay_ms,
    handshake_ack_delay_ms,
    sends_initial_ack: bool = True,
    default_pto_ms: float = 200.0,
    **kwargs,
) -> ImplProfile:
    return ImplProfile(
        name=name,
        default_pto_ms=default_pto_ms,
        initial_ack_delay_ms=initial_ack_delay_ms or 0.0,
        handshake_ack_delay_ms=handshake_ack_delay_ms,
        sends_initial_ack=sends_initial_ack,
        **kwargs,
    )


#: The quic-go server "modified to support IACK" used for all testbed
#: experiments (§3); its 200 ms default PTO drives the Figure 6 result.
QUIC_GO_SERVER = _server(
    "quic-go", initial_ack_delay_ms=0.0, handshake_ack_delay_ms=None,
    default_pto_ms=200.0,
)

#: Table 3 of the paper: first ACK delay [ms] in the Initial and
#: Handshake packet number spaces, per server implementation. ``None``
#: for the Handshake column means no Handshake ACK was observed.
SERVER_PROFILES: Dict[str, ImplProfile] = {
    p.name: p
    for p in (
        _server("aioquic", 3.3, None),
        _server("go-x-net", 0.0, None),
        _server("haproxy", 1.0, 0.0),
        _server("kwik", 0.0, None),
        _server("lsquic", 1.2, 0.2),
        _server("msquic", 0.0, None, sends_initial_ack=False),
        _server("mvfst", 0.8, 0.2),
        _server("neqo", 0.0, 0.0),
        _server("nginx", 0.0, None),
        _server("ngtcp2", 0.0, None),
        _server("picoquic", 0.8, None),
        QUIC_GO_SERVER,
        _server("quiche", 1.4, None),
        _server("quinn", 0.4, None),
        _server("s2n-quic", 14.4, None),  # "exceeds the RTT of the connection"
        _server("xquic", 1.2, 0.5),
    )
}


