"""Hosts and point-to-point networks.

The testbed topology in the paper is a client and a (frontend) server
joined by a symmetric emulated path; the certificate store is modelled
as a server-side delay Δt ("Backend–frontend delays are emulated by a
configurable sleep period in the server code", §3). :class:`Network`
wires two :class:`Host` endpoints with one :class:`~repro.sim.link.Link`
per direction and exposes the paper's knobs directly, and
:meth:`Network.connect` wires a protocol endpoint pair onto it for one
run.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, Dict, Iterator, Optional

from repro.sim.engine import EventLoop
from repro.sim.link import DEFAULT_BANDWIDTH_BPS, Link
from repro.sim.loss import LossPattern, NoLoss
from repro.sim.trace import Tracer


class Host:
    """A network endpoint identified by name.

    A host owns a receive callback; the :class:`Network` invokes it for
    each delivered datagram. Protocol endpoints (QUIC connections)
    register themselves via :meth:`attach` (``None`` detaches).
    """

    def __init__(self, name: str):
        self.name = name
        self._receiver: Optional[Callable[[object], None]] = None

    def attach(self, receiver: Optional[Callable[[object], None]]) -> None:
        """Register the function called for each delivered datagram."""
        self._receiver = receiver

    @property
    def receiver(self) -> Callable[[object], None]:
        if self._receiver is None:
            raise RuntimeError(f"host {self.name!r} has no attached receiver")
        return self._receiver

    def deliver(self, payload: object) -> None:
        self.receiver(payload)


class Network:
    """Two hosts joined by a directed link per direction.

    Parameters mirror the paper's emulation knobs: a symmetric one-way
    delay (half the emulated RTT), 10 Mbit/s bandwidth, and independent
    loss patterns per direction.
    """

    def __init__(
        self,
        loop: EventLoop,
        client: Host,
        server: Host,
        one_way_delay_ms: float,
        bandwidth_bps: Optional[float] = DEFAULT_BANDWIDTH_BPS,
        client_to_server_loss: Optional[LossPattern] = None,
        server_to_client_loss: Optional[LossPattern] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.loop = loop
        self.client = client
        self.server = server
        self.tracer = tracer if tracer is not None else Tracer()
        self.uplink = Link(
            loop,
            one_way_delay_ms,
            bandwidth_bps,
            client_to_server_loss or NoLoss(),
            name=f"{client.name}->{server.name}",
            tracer=self.tracer,
        )
        self.downlink = Link(
            loop,
            one_way_delay_ms,
            bandwidth_bps,
            server_to_client_loss or NoLoss(),
            name=f"{server.name}->{client.name}",
            tracer=self.tracer,
        )
        self._links: Dict[str, Link] = {
            client.name: self.uplink,
            server.name: self.downlink,
        }

    @classmethod
    def for_rtt(
        cls,
        loop: EventLoop,
        rtt_ms: float,
        bandwidth_bps: Optional[float] = DEFAULT_BANDWIDTH_BPS,
        client_to_server_loss: Optional[LossPattern] = None,
        server_to_client_loss: Optional[LossPattern] = None,
        tracer: Optional[Tracer] = None,
    ) -> "Network":
        """Build a symmetric client/server network for an emulated RTT."""
        client = Host("client")
        server = Host("server")
        return cls(
            loop,
            client,
            server,
            one_way_delay_ms=rtt_ms / 2.0,
            bandwidth_bps=bandwidth_bps,
            client_to_server_loss=client_to_server_loss,
            server_to_client_loss=server_to_client_loss,
            tracer=tracer,
        )

    def _link_and_peer(self, host: Host):
        link = self._links.get(host.name)
        if link is None:
            raise ValueError(f"host {host.name!r} is not part of this network")
        return link, self.server if host is self.client else self.client

    def send_from(self, host: Host, payload: object, size: int) -> bool:
        """Send a datagram from ``host`` to the opposite endpoint."""
        link, peer = self._link_and_peer(host)
        return link.send(payload, size, peer.deliver)

    @contextmanager
    def connect(self, client: Any, server: Any) -> Iterator[None]:
        """Wire ``client`` and ``server`` (QUIC connections, or anything
        with their ``on_datagram`` and ``attach_transport``) to this
        network's hosts for a ``with`` block: each host delivers to its
        endpoint's ``on_datagram``, and each endpoint transmits on its
        own link straight to the peer's receiver (link and receiver
        resolved here, once, instead of per datagram).

        On leaving the block, normally or by an exception, the run is
        over: both are dropped again, and so are the events still
        pending on the loop. The endpoints reach each other only through
        these transports, and a queued timer reaches its owner and the
        loop, so an unwired pair holds no reference cycle: refcounting
        frees a finished run as soon as its artifacts are taken,
        instead of leaving it to the cyclic collector. An unwired
        endpoint that sends raises ``RuntimeError``.
        """
        pairs = ((self.client, client), (self.server, server))
        for host, endpoint in pairs:
            host.attach(endpoint.on_datagram)
        for host, endpoint in pairs:
            link, peer = self._link_and_peer(host)
            endpoint.attach_transport(partial(link.send, deliver=peer.receiver))
        try:
            yield
        finally:
            for host, endpoint in pairs:
                endpoint.attach_transport(None)
                host.attach(None)
            self.loop.discard()
