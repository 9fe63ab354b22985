"""Tests for the implementation profile registry (paper Tables 3/4)."""

import pytest

from repro.impls import (
    CLIENT_PROFILES,
    SERVER_PROFILES,
    ImplProfile,
    SecondFlightVariant,
    client_profile,
    QUIC_GO_SERVER,
)

#: Paper Table 4 ground truth.
TABLE4 = {
    "aioquic": (200, (2, 3, 4)),
    "go-x-net": (999, (2, 3, 4)),
    "mvfst": (100, (2, 3, 4)),
    "neqo": (300, (2, 3)),
    "ngtcp2": (300, (2, 3, 4)),
    "picoquic": (250, (2, 3, 4, 5)),
    "quic-go": (200, (2, 3, 4)),
    "quiche": (999, (2,)),
}


def test_all_eight_clients_present():
    assert set(CLIENT_PROFILES) == set(TABLE4)


@pytest.mark.parametrize("name", sorted(TABLE4))
def test_table4_values(name):
    profile = client_profile(name)
    pto, indices = TABLE4[name]
    assert profile.default_pto_ms == pto
    assert profile.second_flight_indices == indices


def test_unknown_client_raises_with_candidates():
    with pytest.raises(KeyError, match="aioquic"):
        client_profile("msquic")


def test_go_x_net_lacks_http3():
    assert not client_profile("go-x-net").supports_http3
    assert all(
        client_profile(name).supports_http3
        for name in TABLE4
        if name != "go-x-net"
    )


def test_quirk_assignment_matches_paper():
    assert client_profile("picoquic").use_initial_ack_rtt_sample is False
    assert client_profile("picoquic").anti_deadlock_probe_from_sent_time
    assert client_profile("mvfst").anti_deadlock_probe_from_sent_time
    assert client_profile("quiche").drops_ping_ack_coalesced
    assert client_profile("quiche").aborts_on_duplicate_cid_retirement
    assert client_profile("go-x-net").misinit_srtt_probability > 0
    assert client_profile("aioquic").rtt_variant == "aioquic"


def test_qlog_exposure_split():
    # Appendix E: aioquic/go-x-net/mvfst/quiche expose the maximum.
    for name in ("aioquic", "go-x-net", "mvfst", "quiche"):
        assert client_profile(name).qlog_metrics_exposure == 1.0
    for name in ("neqo", "ngtcp2", "picoquic", "quic-go"):
        assert client_profile(name).qlog_metrics_exposure < 1.0
    # neqo, mvfst, picoquic do not log RTT variance.
    for name in ("neqo", "mvfst", "picoquic"):
        assert not client_profile(name).qlog_logs_rtt_variance


def test_sixteen_server_profiles():
    assert len(SERVER_PROFILES) == 16
    assert SERVER_PROFILES["quic-go"] is QUIC_GO_SERVER


def test_msquic_sends_no_acks():
    assert not SERVER_PROFILES["msquic"].sends_initial_ack


def test_handshake_ack_rarity():
    # Table 3: only 5 of 16 servers acknowledge in the Handshake space.
    with_hs_ack = [
        name for name, p in SERVER_PROFILES.items()
        if p.handshake_ack_delay_ms is not None
    ]
    assert sorted(with_hs_ack) == ["haproxy", "lsquic", "mvfst", "neqo", "xquic"]


def test_s2n_quic_delay_exceeds_typical_rtt():
    # "The reported delay of s2n-quic exceeds the RTT of the connection."
    assert SERVER_PROFILES["s2n-quic"].initial_ack_delay_ms > 9.0


def test_profile_validation():
    with pytest.raises(ValueError):
        ImplProfile(name="bad", default_pto_ms=0.0)
    with pytest.raises(ValueError):
        ImplProfile(name="bad", default_pto_ms=100.0, second_flight_indices=())
    with pytest.raises(ValueError):
        ImplProfile(
            name="bad", default_pto_ms=100.0, second_flight_indices=(3, 2)
        )
    with pytest.raises(ValueError):
        SecondFlightVariant(probability=0.0, datagrams=1)
    with pytest.raises(ValueError):
        ImplProfile(
            name="bad",
            default_pto_ms=100.0,
            second_flight_variants=(
                SecondFlightVariant(probability=0.5, datagrams=1),
            ),
        )


def test_exposure_policy_derivation():
    policy = client_profile("neqo").exposure_policy()
    assert policy.metrics_exposure == 0.5
    assert not policy.logs_rtt_variance
