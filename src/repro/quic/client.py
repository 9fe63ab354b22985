"""The QUIC client connection.

Drives the handshake of Figure 3: send the ClientHello, process the
(instant or coalesced) ACK and ServerHello, complete the handshake
with the profile-specific second client flight, issue the HTTP
request, and receive the response. All implementation-specific
behavior comes from the :class:`~repro.impls.profile.ImplProfile`.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.http.base import HttpSemantics, RequestSpec
from repro.impls.profile import ImplProfile
from repro.qlog.writer import QlogWriter
from repro.quic.coalescing import Datagram
from repro.quic.connection import Endpoint
from repro.quic.frames import CryptoFrame, Frame, MaxDataFrame, StreamFrame
from repro.quic.packet import Packet, Space
from repro.quic.tls import (
    SERVER_HELLO_SIZE,
    client_finished,
    client_hello,
)
from repro.sim.engine import EventLoop


class ClientConnection(Endpoint):
    """A QUIC client performing one HTTP request."""

    is_client = True

    def __init__(
        self,
        loop: EventLoop,
        profile: ImplProfile,
        http: HttpSemantics,
        request: Optional[RequestSpec] = None,
        rng: Optional[random.Random] = None,
        qlog: Optional[QlogWriter] = None,
        name: str = "client",
        draws=None,
        recovery_profile=None,
        recovery_config=None,
    ):
        super().__init__(
            loop,
            profile,
            rng=rng,
            qlog=qlog,
            name=name,
            draws=draws,
            recovery_profile=recovery_profile,
            recovery_config=recovery_config,
        )
        if not profile.supports_http3 and http.name == "http/3":
            raise ValueError(f"{profile.name} does not implement HTTP/3")
        self.http = http
        self.request = request if request is not None else RequestSpec()
        self._second_flight_sent = False
        self._done = False
        self._response_stream_id = http.request_stream_id
        self._bytes_since_flow_update = 0
        self._flow_credit = 0

    # ------------------------------------------------------------------
    # connection start
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Send the first client flight: Initial[CRYPTO(ClientHello)]."""
        message = client_hello()
        offset, length = self.crypto_send[Space.INITIAL].append(message)
        frame = CryptoFrame(
            offset=offset,
            length=length,
            label=message.name,
            stream_total=self.crypto_send[Space.INITIAL].length,
        )
        packet = self.build_packet(Space.INITIAL, (frame,))
        self.stats.client_hello_sent_ms = self.loop.now
        self.send_packets([packet])

    # ------------------------------------------------------------------
    # handshake progress
    # ------------------------------------------------------------------

    def on_crypto_progress(self, space: Space) -> None:
        if space is Space.INITIAL and not self._has_handshake_keys:
            expected = self.crypto_expected[Space.INITIAL] or SERVER_HELLO_SIZE
            if self.crypto_recv[Space.INITIAL].has(expected):
                self._has_handshake_keys = True
                self.stats.server_hello_received_ms = self.loop.now
        if space is Space.HANDSHAKE and not self.handshake_complete:
            expected = self.crypto_expected[Space.HANDSHAKE]
            if expected and self.crypto_recv[Space.HANDSHAKE].has(expected):
                self._complete_handshake()

    def _complete_handshake(self) -> None:
        """Server flight fully received: derive 1-RTT keys, send the
        second client flight (Figure 3), and issue the request."""
        self._has_app_keys = True
        self.handshake_complete = True
        self.stats.handshake_complete_ms = self.loop.now
        if not self._second_flight_sent:
            self._send_second_flight()

    def _second_flight_datagram_count(self) -> int:
        if self.profile.second_flight_variants:
            roll = self.draws.second_flight_roll()
            cumulative = 0.0
            for variant in self.profile.second_flight_variants:
                cumulative += variant.probability
                if roll <= cumulative:
                    return variant.datagrams
            return self.profile.second_flight_variants[-1].datagrams
        return self.profile.second_flight_datagram_count

    def _send_second_flight(self) -> None:
        """Initial(ACK) + Handshake(CRYPTO[FIN], ACK) + 1-RTT(request),
        split across the number of UDP datagrams this implementation
        uses (paper Table 4)."""
        self._second_flight_sent = True
        fin = client_finished()
        offset, length = self.crypto_send[Space.HANDSHAKE].append(fin)
        fin_frame = CryptoFrame(
            offset=offset,
            length=length,
            label=fin.name,
            stream_total=self.crypto_send[Space.HANDSHAKE].length,
        )
        app_frames = self._request_frames()
        count = self._second_flight_datagram_count()

        initial_pkt = self.build_packet(Space.INITIAL, ())
        groups: List[List[Packet]]
        if count == 1:
            hs_pkt = self.build_packet(Space.HANDSHAKE, (fin_frame,))
            app_pkt = self.build_packet(Space.APPLICATION, tuple(app_frames))
            groups = [[initial_pkt, hs_pkt, app_pkt]]
        elif count == 2:
            hs_pkt = self.build_packet(Space.HANDSHAKE, (fin_frame,))
            app_pkt = self.build_packet(Space.APPLICATION, tuple(app_frames))
            groups = [[initial_pkt, hs_pkt], [app_pkt]]
        elif count == 3:
            hs_pkt = self.build_packet(Space.HANDSHAKE, (fin_frame,))
            app_pkt = self.build_packet(Space.APPLICATION, tuple(app_frames))
            groups = [[initial_pkt], [hs_pkt], [app_pkt]]
        else:
            hs_ack_pkt = self.build_packet(Space.HANDSHAKE, ())
            hs_fin_pkt = self.build_packet(
                Space.HANDSHAKE, (fin_frame,), include_ack=False
            )
            app_pkt = self.build_packet(Space.APPLICATION, tuple(app_frames))
            groups = [[initial_pkt], [hs_ack_pkt], [hs_fin_pkt], [app_pkt]]
        self.send_packets([], group_into_datagrams=groups)
        # RFC 9001 §4.9.1: a client discards Initial keys when it first
        # sends a Handshake packet.
        self.discard_space(Space.INITIAL)

    def _request_frames(self) -> List[Frame]:
        frames: List[Frame] = []
        for write in self.http.client_writes(self.request):
            stream = self.streams.get_send(write.stream_id)
            stream.label = write.label
            stream.write(write.size)
            if write.fin:
                stream.finish()
            chunk = stream.next_chunk(write.size)
            if chunk is None:
                continue
            offset, length, fin = chunk
            frames.append(
                StreamFrame(
                    stream_id=write.stream_id,
                    offset=offset,
                    length=length,
                    fin=fin,
                    label=write.label,
                )
            )
        return frames

    # ------------------------------------------------------------------
    # post-handshake events
    # ------------------------------------------------------------------

    def on_handshake_done(self) -> None:
        if self.handshake_confirmed:
            return
        self.handshake_confirmed = True
        self.stats.handshake_confirmed_ms = self.loop.now
        self.recovery.set_handshake_complete()
        # RFC 9001 §4.9.2: discard Handshake keys once the handshake
        # is confirmed.
        self.discard_space(Space.HANDSHAKE)

    def on_stream_data(self, frame: StreamFrame) -> None:
        self._bytes_since_flow_update += frame.length
        stream = self.streams.get_recv(self._response_stream_id)
        if stream.complete and self.stats.response_complete_ms is None:
            self.stats.response_complete_ms = self.loop.now
            self._done = True

    def _maybe_send_flow_update(self) -> None:
        """Grant connection flow-control credit (MAX_DATA) every
        ``flow_update_interval_bytes`` received — the ack-eliciting
        packets that give a downloading client RTT samples."""
        interval = self.profile.flow_update_interval_bytes
        if self._bytes_since_flow_update < interval or self._done:
            return
        if not self._has_app_keys or self.closed:
            return
        self._flow_credit += self._bytes_since_flow_update
        self._bytes_since_flow_update = 0
        packet = self.build_packet(
            Space.APPLICATION,
            (MaxDataFrame(maximum=self._flow_credit + 16 * interval),),
        )
        self.send_packets([packet])

    def after_datagram(self, dgram: Datagram) -> None:
        self._maybe_send_flow_update()
        if self._done and not self.closed:
            # Flush the final acknowledgment, then tear down locally.
            self._send_app_ack()
            self.finish()

    def _dup_cid_abort_applies(self) -> bool:
        # The quiche abort was observed for HTTP/1.1 only (§4.2).
        return self.http.name == "http/1.1"
