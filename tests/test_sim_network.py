"""Tests for hosts and point-to-point networks."""

import pytest

from repro.sim.engine import EventLoop
from repro.sim.loss import IndexedLoss
from repro.sim.network import Host, Network


def test_for_rtt_splits_delay_symmetrically():
    loop = EventLoop()
    network = Network.for_rtt(loop, rtt_ms=20.0, bandwidth_bps=None)
    assert network.uplink.one_way_delay_ms == 10.0
    assert network.downlink.one_way_delay_ms == 10.0
    assert network.uplink.one_way_delay_ms + network.downlink.one_way_delay_ms == 20.0


def test_send_between_hosts():
    loop = EventLoop()
    network = Network.for_rtt(loop, rtt_ms=10.0, bandwidth_bps=None)
    got = {}
    network.client.attach(lambda p: got.setdefault("client", (p, loop.now)))
    network.server.attach(lambda p: got.setdefault("server", (p, loop.now)))
    network.send_from(network.client, "hello", 100)
    loop.run()
    assert got["server"] == ("hello", 5.0)
    network.send_from(network.server, "world", 100)
    loop.run()
    assert got["client"][0] == "world"


def test_directional_loss_patterns_are_independent():
    loop = EventLoop()
    network = Network.for_rtt(
        loop,
        rtt_ms=2.0,
        bandwidth_bps=None,
        client_to_server_loss=IndexedLoss({1}),
    )
    seen = []
    network.server.attach(seen.append)
    network.client.attach(seen.append)
    network.send_from(network.client, "up1", 10)   # dropped
    network.send_from(network.client, "up2", 10)   # delivered
    network.send_from(network.server, "down1", 10)  # delivered
    loop.run()
    assert sorted(seen) == ["down1", "up2"]


def test_unattached_host_raises():
    host = Host("lonely")
    with pytest.raises(RuntimeError):
        host.deliver("x")


def test_foreign_host_rejected():
    loop = EventLoop()
    network = Network.for_rtt(loop, rtt_ms=2.0)
    with pytest.raises(ValueError):
        network.send_from(Host("stranger"), "x", 10)


def test_tracer_covers_both_directions():
    loop = EventLoop()
    network = Network.for_rtt(loop, rtt_ms=2.0, bandwidth_bps=None)
    network.client.attach(lambda p: None)
    network.server.attach(lambda p: None)
    network.send_from(network.client, "a", 10)
    network.send_from(network.server, "b", 10)
    loop.run()
    links = {record.link for record in network.tracer.records}
    assert links == {"client->server", "server->client"}


class Endpoint:
    """The two methods ``Network.connect`` wires."""

    def __init__(self):
        self.got = []
        self.transmit = None

    def on_datagram(self, payload):
        self.got.append(payload)

    def attach_transport(self, transmit):
        self.transmit = transmit


def test_connect_wires_a_pair_and_unwires_it_even_when_the_run_raises():
    loop = EventLoop()
    network = Network.for_rtt(loop, rtt_ms=10.0, bandwidth_bps=None)
    client, server = Endpoint(), Endpoint()
    with pytest.raises(ZeroDivisionError):
        with network.connect(client, server):
            client.transmit("ping", 100)
            loop.run(until=6.0)
            server.transmit("pong", 100)
            timer = loop.call_later(50.0, client.on_datagram, "late")
            1 / 0
    assert server.got == ["ping"] and client.got == []
    # The pong in flight and the timer are dropped with what they hold.
    assert client.transmit is None and server.transmit is None
    assert loop.pending() == 0 and timer.cancelled and timer.callback is None
    with pytest.raises(RuntimeError):
        network.client.deliver("x")
    loop.run()
    assert client.got == []
