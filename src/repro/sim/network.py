"""Hosts and point-to-point networks.

The testbed topology in the paper is a client and a (frontend) server
joined by a symmetric emulated path; the certificate store is modelled
as a server-side delay Δt ("Backend–frontend delays are emulated by a
configurable sleep period in the server code", §3). :class:`Network`
wires two :class:`Host` endpoints with one :class:`~repro.sim.link.Link`
per direction and exposes the paper's knobs directly.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional

from repro.sim.engine import EventLoop
from repro.sim.link import DEFAULT_BANDWIDTH_BPS, Link
from repro.sim.loss import LossPattern, NoLoss
from repro.sim.trace import Tracer


class Host:
    """A network endpoint identified by name.

    A host owns a receive callback; the :class:`Network` invokes it for
    each delivered datagram. Protocol endpoints (QUIC connections)
    register themselves via :meth:`attach`.
    """

    def __init__(self, name: str):
        self.name = name
        self._receiver: Optional[Callable[[object], None]] = None

    def attach(self, receiver: Callable[[object], None]) -> None:
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

    def transport_from(self, host: Host) -> Callable[[object, int], bool]:
        """:meth:`send_from` bound to ``host`` for a whole connection:
        the link and the peer's (already attached) receiver are
        resolved here, once, instead of per datagram."""
        link, peer = self._link_and_peer(host)
        return partial(link.send, deliver=peer.receiver)
