"""The QUIC server connection with IACK/WFC policies.

Models the frontend server of Figure 1: on receiving the TLS
ClientHello it must fetch the certificate (emulated, as in the paper,
by a configurable delay Δt plus crypto processing time) before it can
send the ServerHello. The server either

* **waits for the certificate (WFC)** — first packet is the coalesced
  ACK–ServerHello after Δt, inflating the client's first RTT sample; or
* sends an **instant ACK (IACK)** — an immediate Initial packet
  carrying only an ACK frame, which is *not ack-eliciting* and
  therefore yields the server no RTT sample (the Figure 6 mechanism),
  but gives the client an accurate one (the Figures 5/7 mechanism).

The anti-amplification limit (RFC 9000 §8.1) gates every datagram
until a Handshake packet validates the client address.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.http.base import HttpSemantics, RequestSpec
from repro.impls.profile import ImplProfile
from repro.qlog.writer import QlogWriter
from repro.quic.amplification import AmplificationLimiter
from repro.quic.certs import Certificate, SMALL_CERTIFICATE
from repro.quic.cid import make_cid
from repro.quic.coalescing import Datagram, MAX_DATAGRAM_SIZE
from repro.quic.connection import MAX_FRAME_PAYLOAD, Endpoint
from repro.quic.frames import (
    CryptoFrame,
    Frame,
    HandshakeDoneFrame,
    NewConnectionIdFrame,
    StreamFrame,
)
from repro.quic.packet import Packet, PacketType, Space
from repro.quic.tls import (
    CLIENT_HELLO_SIZE,
    FINISHED_SIZE,
    server_handshake_messages,
    server_hello,
)
from repro.sim.engine import EventLoop


class ServerMode(enum.Enum):
    """The two server behaviors of Figure 1."""

    WFC = "wait-for-certificate"
    IACK = "instant-ack"


@dataclass
class ServerConfig:
    """Deployment knobs of the frontend server."""

    mode: ServerMode = ServerMode.WFC
    #: Frontend <-> certificate-store delay Δt (§3: "Backend–frontend
    #: delays are emulated by a configurable sleep period").
    delta_t_ms: float = 0.0
    certificate: Certificate = field(default_factory=lambda: SMALL_CERTIFICATE)
    #: Whether Initial retransmissions carry a NEW_CONNECTION_ID with a
    #: bumped retire_prior_to — the behavior that, combined with
    #: quiche's duplicate-retirement intolerance, aborts quiche
    #: connections (§4.2).
    ncid_on_initial_retransmit: bool = True
    #: Pad the instant ACK to 1200 B to probe the path MTU, as
    #: Cloudflare does (§5) — consumes amplification budget.
    pad_instant_ack: bool = False


class ServerConnection(Endpoint):
    """A QUIC server serving one connection."""

    is_client = False

    def __init__(
        self,
        loop: EventLoop,
        profile: ImplProfile,
        http: HttpSemantics,
        config: Optional[ServerConfig] = None,
        rng: Optional[random.Random] = None,
        qlog: Optional[QlogWriter] = None,
        name: str = "server",
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
        self.http = http
        self.config = config if config is not None else ServerConfig()
        self.amplification = AmplificationLimiter()
        self._peer_validated = False
        self._blocked: List[Tuple[Datagram, bool]] = []
        self._started = False
        self._cert_ready = False
        self._iack_sent = False
        self._request: Optional[RequestSpec] = None
        self._response_started = False
        self._next_cid_seq = 1
        #: When the instant ACK was sent (for trace analysis).
        self.iack_sent_ms: Optional[float] = None
        self.server_hello_sent_ms: Optional[float] = None

    # ------------------------------------------------------------------
    # amplification accounting
    # ------------------------------------------------------------------

    def on_datagram(self, dgram: Datagram) -> None:
        if not self.closed:
            self.amplification.on_datagram_received(dgram.size)
            self._flush_blocked()
        super().on_datagram(dgram)

    def _send_datagram(self, dgram: Datagram, is_probe: bool = False) -> None:
        # Preserve flight order: once a datagram is queued behind the
        # amplification limit, everything later queues behind it too.
        size = dgram.size
        if self._blocked or not self.amplification.can_send(size):
            self.stats.amplification_blocked_events += 1
            self._blocked.append((dgram, is_probe))
            return
        super()._send_datagram(dgram, is_probe)
        self.amplification.on_datagram_sent(size)

    def _flush_blocked(self) -> None:
        if not self._blocked:
            return
        pending = self._blocked
        self._blocked = []
        for dgram, is_probe in pending:
            self._send_datagram(dgram, is_probe=is_probe)
        self._rearm_loss_timer()

    # ------------------------------------------------------------------
    # packet processing overrides
    # ------------------------------------------------------------------

    def discard_space(self, space: Space) -> None:
        super().discard_space(space)
        # Discarded keys cannot protect a packet (RFC 9001 §4.9.1):
        # datagrams still queued behind the amplification limit lose
        # their packets of that space. Flight order is kept for the
        # rest; a datagram left empty is never sent.
        kept: List[Tuple[Datagram, bool]] = []
        for dgram, is_probe in self._blocked:
            packets = tuple(p for p in dgram.packets if p.space is not space)
            if len(packets) != len(dgram.packets):
                if not packets:
                    continue
                dgram = Datagram(packets, dgram.sender)
            kept.append((dgram, is_probe))
        self._blocked = kept

    def _on_peer_validated(self) -> None:
        """First Handshake packet: it proves the client's address (RFC
        9000 §8.1), and the server discards its Initial keys (RFC 9001
        §4.9.1)."""
        self._peer_validated = True
        self.amplification.validate()
        if not self.recovery.spaces[Space.INITIAL].discarded:
            self.discard_space(Space.INITIAL)
        self._flush_blocked()

    def _suppress_immediate_ack(self, space: Space) -> bool:
        if space is not Space.INITIAL:
            return space is Space.HANDSHAKE and (
                self.profile.handshake_ack_delay_ms is None
            )
        if self.config.mode is ServerMode.WFC:
            # WFC: the first ACK rides on the coalesced ACK–ServerHello.
            return not self._cert_ready
        # IACK: exactly one instant ACK is sent (explicitly, after
        # Initial-key derivation); acknowledgments for further Initial
        # packets received while the certificate fetch is in progress
        # (client PTO probes) are bundled into the ServerHello flight —
        # producing the coalesced PING replies that trip up quiche
        # (§4.1).
        return not self._iack_sent or not self._cert_ready

    # ------------------------------------------------------------------
    # handshake logic
    # ------------------------------------------------------------------

    def on_crypto_progress(self, space: Space) -> None:
        if space is Space.INITIAL and not self._started:
            expected = self.crypto_expected[Space.INITIAL] or CLIENT_HELLO_SIZE
            if self.crypto_recv[Space.INITIAL].has(expected):
                self._started = True
                self._on_client_hello()
        if space is Space.HANDSHAKE and not self.handshake_complete:
            expected = self.crypto_expected[Space.HANDSHAKE] or FINISHED_SIZE
            if self.crypto_recv[Space.HANDSHAKE].has(expected):
                self._complete_handshake()

    def _on_client_hello(self) -> None:
        """ClientHello received: emit the instant ACK (IACK mode) and
        start the certificate fetch."""
        if self.config.mode is ServerMode.IACK and self.profile.sends_initial_ack:
            self.loop.call_later(self.profile.iack_processing_ms, self._send_iack)
        fetch = self.config.delta_t_ms + self._crypto_processing_sample()
        self.loop.call_later(fetch, self._handshake_ready)

    def _crypto_processing_sample(self) -> float:
        """Time to compile ServerHello, certificate, and signature —
        dominated by the signing function (§4.1)."""
        jitter = self.draws.crypto_jitter(self.profile.crypto_processing_jitter_ms)
        return self.profile.crypto_processing_ms + jitter

    def _send_iack(self) -> None:
        if self.closed or self._iack_sent:
            return
        self._iack_sent = True
        self.iack_sent_ms = self.loop.now
        packet = self.build_packet(
            Space.INITIAL, (), ack_delay_ms=self.profile.initial_ack_delay_ms
        )
        if packet.frames:
            self.send_packets([packet])

    def _pad_server_datagram(self, group: List[Packet]) -> bool:
        if not self.config.pad_instant_ack:
            return False
        return all(
            p.packet_type is PacketType.INITIAL and not p.ack_eliciting
            for p in group
        )

    def _handshake_ready(self) -> None:
        """Certificate available: send the first server flight —
        Initial(ACK?, CRYPTO[SH]) coalesced with Handshake(CRYPTO[EE,
        CERT, CV, FIN]) across as many datagrams as needed."""
        if self.closed:
            return
        self._cert_ready = True
        sh = server_hello()
        offset, length = self.crypto_send[Space.INITIAL].append(sh)
        initial_frame = CryptoFrame(
            offset=offset,
            length=length,
            label=sh.name,
            stream_total=self.crypto_send[Space.INITIAL].length,
        )
        initial_pkt = self.build_packet(Space.INITIAL, (initial_frame,))
        hs_buffer = self.crypto_send[Space.HANDSHAKE]
        for message in server_handshake_messages(self.config.certificate):
            hs_buffer.append(message)
        total_hs = hs_buffer.length
        groups: List[List[Packet]] = []
        current: List[Packet] = [initial_pkt]
        current_size = initial_pkt.size
        cursor = 0
        while cursor < total_hs:
            # Header + AEAD overhead of a Handshake packet ~ 45 bytes.
            room = MAX_DATAGRAM_SIZE - current_size - 60
            if room < 100:
                groups.append(current)
                current = []
                current_size = 0
                room = MAX_DATAGRAM_SIZE - 60
            chunk = min(room, total_hs - cursor, MAX_FRAME_PAYLOAD)
            frame = CryptoFrame(
                offset=cursor,
                length=chunk,
                label=hs_buffer.label_for(cursor, cursor + chunk),
                stream_total=total_hs,
            )
            packet = self.build_packet(Space.HANDSHAKE, (frame,))
            current.append(packet)
            current_size += packet.size
            cursor += chunk
        if current:
            groups.append(current)
        # 0.5-RTT data: HTTP/3 servers emit their control-stream
        # SETTINGS with the first flight — the reason "HTTP/3
        # generally has a lower TTFB ... one RTT faster" (Figure 5).
        early_frames = self._early_data_frames()
        if early_frames:
            early_pkt = self.build_packet(Space.APPLICATION, tuple(early_frames))
            if sum(p.size for p in groups[-1]) + early_pkt.size <= MAX_DATAGRAM_SIZE:
                groups[-1].append(early_pkt)
            else:
                groups.append([early_pkt])
        self.server_hello_sent_ms = self.loop.now
        self.send_packets([], group_into_datagrams=groups)

    def _early_data_frames(self) -> List[Frame]:
        frames: List[Frame] = []
        for write in self.http.server_handshake_writes():
            stream = self.streams.get_send(write.stream_id)
            stream.label = write.label
            stream.write(write.size)
            if write.fin:
                stream.finish()
            chunk = stream.next_chunk(write.size)
            if chunk is not None:
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

    def _complete_handshake(self) -> None:
        """Client Finished verified: handshake complete and confirmed
        (RFC 9001 §4.1.2 for servers)."""
        self.handshake_complete = True
        self.handshake_confirmed = True
        self.stats.handshake_complete_ms = self.loop.now
        self.stats.handshake_confirmed_ms = self.loop.now
        self.recovery.set_handshake_complete()
        # Implementations that acknowledge in the Handshake space
        # (Table 3: haproxy, lsquic, mvfst, neqo, xquic) do so before
        # the keys are dropped.
        if (
            self.profile.handshake_ack_delay_ms is not None
            and self._ack_state[Space.HANDSHAKE].needs_ack
            and not self.recovery.spaces[Space.HANDSHAKE].discarded
        ):
            ack_packet = self.build_packet(
                Space.HANDSHAKE, (),
                ack_delay_ms=self.profile.handshake_ack_delay_ms,
            )
            if ack_packet.frames:
                self.send_packets([ack_packet])
        if not self.recovery.spaces[Space.HANDSHAKE].discarded:
            self.discard_space(Space.HANDSHAKE)
        frames: List[Frame] = [
            HandshakeDoneFrame(),
            NewConnectionIdFrame(
                sequence=self._next_cid_seq,
                retire_prior_to=0,
                connection_id=make_cid(0x5E, self._next_cid_seq),
            ),
        ]
        self._next_cid_seq += 1
        self.send_packets([self.build_packet(Space.APPLICATION, tuple(frames))])
        self._drain_pending()
        self._maybe_start_response()

    # ------------------------------------------------------------------
    # request / response
    # ------------------------------------------------------------------

    def on_stream_data(self, frame: StreamFrame) -> None:
        if frame.stream_id != self.http.request_stream_id:
            return
        stream = self.streams.get_recv(frame.stream_id)
        if stream.complete and self._request is None:
            self._request = RequestSpec()
            self._maybe_start_response()

    def set_request_spec(self, request: RequestSpec) -> None:
        """Configure the resource this server serves (the interop
        harness sets the 10 KB / 10 MB file sizes here)."""
        self._pending_request_spec = request

    def _maybe_start_response(self) -> None:
        if (
            self._request is None
            or not self.handshake_complete
            or self._response_started
        ):
            return
        self._response_started = True
        spec = getattr(self, "_pending_request_spec", None) or self._request
        for write in self.http.server_response_writes(spec):
            stream = self.streams.get_send(write.stream_id)
            stream.label = write.label
            stream.write(write.size)
            if write.fin:
                stream.finish()
        self._pump_response()

    def _pump_response(self) -> None:
        """Send as much response data as the congestion window allows."""
        packets: List[Packet] = []
        budget = self.cc.available_window()
        for stream in self.streams.send.values():
            while stream.bytes_unsent > 0:
                projected = MAX_FRAME_PAYLOAD + 60
                if budget < projected:
                    break
                chunk = stream.next_chunk(MAX_FRAME_PAYLOAD)
                if chunk is None:
                    break
                offset, length, fin = chunk
                packet = self.build_packet(
                    Space.APPLICATION,
                    (StreamFrame(stream.stream_id, offset, length, fin, stream.label),),
                )
                packets.append(packet)
                budget -= packet.size
        if packets:
            # Each packet travels in its own datagram (bulk data).
            self.send_packets([], group_into_datagrams=[[p] for p in packets])

    def after_datagram(self, dgram: Datagram) -> None:
        self._maybe_start_response()
        if self._response_started:
            self._pump_response()

    # ------------------------------------------------------------------
    # retransmission override: CID rotation on Initial retransmits
    # ------------------------------------------------------------------

    def _crypto_packets(self, space: Space, ranges) -> List[Packet]:
        packets = super()._crypto_packets(space, ranges)
        if (
            packets
            and space is Space.INITIAL
            and self._cert_ready
            and self.config.ncid_on_initial_retransmit
        ):
            first = packets[0]
            ncid = NewConnectionIdFrame(
                sequence=self._next_cid_seq,
                retire_prior_to=self._next_cid_seq,
                connection_id=make_cid(0x5E, self._next_cid_seq),
            )
            self._next_cid_seq += 1
            packets[0] = Packet(
                packet_type=first.packet_type,
                packet_number=first.packet_number,
                frames=first.frames + (ncid,),
                dcid=first.dcid,
                scid=first.scid,
                token=first.token,
                pn_length=first.pn_length,
            )
        return packets
