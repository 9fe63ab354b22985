"""Tests for the anti-amplification limiter."""

import pytest

from repro.quic.amplification import AmplificationLimiter


def test_initial_budget_is_zero():
    amp = AmplificationLimiter()
    assert amp.budget() == 0
    assert not amp.can_send(1)


def test_budget_is_three_times_received():
    amp = AmplificationLimiter()
    amp.on_datagram_received(1200)
    assert amp.budget() == 3600
    assert amp.can_send(3600)
    assert not amp.can_send(3601)


def test_sending_consumes_budget():
    amp = AmplificationLimiter()
    amp.on_datagram_received(1200)
    amp.on_datagram_sent(2000)
    assert amp.budget() == 1600
    assert amp.can_send(1600)
    assert not amp.can_send(1601)


def test_validation_lifts_limit():
    amp = AmplificationLimiter()
    assert not amp.can_send(10)
    amp.validate()
    assert amp.validated
    assert amp.can_send(10**9)


def test_blocked_events_counted():
    amp = AmplificationLimiter()
    amp.can_send(1)
    amp.can_send(1)
    assert amp.blocked_events == 2
    amp.on_datagram_received(1)
    amp.can_send(1)
    assert amp.blocked_events == 2


def test_custom_factor():
    amp = AmplificationLimiter(factor=5)
    amp.on_datagram_received(100)
    assert amp.budget() == 500


def test_validation_of_inputs():
    with pytest.raises(ValueError):
        AmplificationLimiter(factor=0)
    amp = AmplificationLimiter()
    with pytest.raises(ValueError):
        amp.on_datagram_received(-1)
    with pytest.raises(ValueError):
        amp.on_datagram_sent(-1)


def test_discarding_a_space_drops_its_packets_from_the_blocked_queue():
    """RFC 9001 §4.9.1: discarded keys cannot protect a packet. A server
    still holding amplification-blocked Initial packets when the first
    Handshake packet discards the Initial space must not send them (it
    used to raise ``space INITIAL already discarded`` from the flush):
    an Initial-only datagram vanishes, a coalesced one keeps its
    Handshake part, flight order is kept."""
    import random

    from repro.http import semantics_for
    from repro.impls.registry import QUIC_GO_SERVER
    from repro.quic.coalescing import Datagram
    from repro.quic.frames import CryptoFrame
    from repro.quic.packet import Packet, PacketType, Space
    from repro.quic.server import ServerConnection
    from repro.sim.engine import EventLoop

    server = ServerConnection(
        EventLoop(), QUIC_GO_SERVER, semantics_for("h1"), rng=random.Random(2)
    )
    sent = []
    server.attach_transport(lambda dgram, size: sent.append(dgram))

    def packet(kind, pn):
        return Packet(kind, pn, (CryptoFrame(offset=0, length=600, label="flight"),))

    initial_only = Datagram((packet(PacketType.INITIAL, 1),), "server")
    coalesced = Datagram(
        (packet(PacketType.INITIAL, 2), packet(PacketType.HANDSHAKE, 0)), "server"
    )
    handshake_only = Datagram((packet(PacketType.HANDSHAKE, 1),), "server")
    for dgram in (initial_only, coalesced, handshake_only):
        server._send_datagram(dgram)  # nothing received yet: all three queue
    assert sent == [] and len(server._blocked) == 3

    server._on_peer_validated()

    assert server.recovery.spaces[Space.INITIAL].discarded
    assert [[(p.packet_type, p.packet_number) for p in d.packets] for d in sent] == [
        [(PacketType.HANDSHAKE, 0)],
        [(PacketType.HANDSHAKE, 1)],
    ]
    assert sent[1] is handshake_only  # untouched datagrams are not rebuilt
    assert server.stats.datagrams_sent == 2
    assert server._blocked == []
