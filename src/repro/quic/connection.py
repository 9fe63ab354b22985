"""Shared QUIC endpoint machinery (client and server bases).

Implements everything RFC 9000/9002 require of both sides: packet
reception with key-availability buffering, ACK generation policy,
ACK processing (RTT samples, congestion control, loss detection),
PTO probing, CRYPTO/STREAM retransmission, and key discard — driven
by a deterministic event loop and parameterized by an
:class:`~repro.impls.profile.ImplProfile`.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.impls.profile import ImplProfile
from repro.qlog.writer import QlogWriter
from repro.quic.cc import make_controller
from repro.quic.cid import CidRegistry
from repro.quic.coalescing import Datagram, coalesce_groups, pad_initial
from repro.quic.frames import (
    AckFrame,
    CryptoFrame,
    Frame,
    HandshakeDoneFrame,
    NewConnectionIdFrame,
    PingFrame,
    StreamFrame,
)
from repro.quic.packet import INITIAL_MIN_DATAGRAM, Packet, PacketType, Space
from repro.quic.profiles import DEFAULT_PROFILE, RecoveryProfile
from repro.quic.recovery import Recovery, RecoveryConfig, SentPacket
from repro.quic.streams import StreamSet
from repro.quic.tls import CryptoReceiveBuffer, CryptoSendBuffer
from repro.sim.draws import BehaviorDraws, RngDraws
from repro.sim.engine import EventLoop, Timer

#: Indexed by Space: the packet type and the qlog name of each space.
_SPACE_TO_TYPE = (PacketType.INITIAL, PacketType.HANDSHAKE, PacketType.ONE_RTT)
_SPACE_NAMES = ("initial", "handshake", "application")

#: Abort the connection after this many consecutive PTOs (safety net;
#: real stacks use an idle timeout).
MAX_PTO_COUNT = 8

#: Largest CRYPTO/STREAM payload placed in one packet so a packet fits
#: a 1200-byte datagram with headers.
MAX_FRAME_PAYLOAD = 1100


@dataclass(slots=True)
class ConnectionStats:
    """Timing observables of one connection, all in ms of simulated
    time from connection start."""

    start_ms: float = 0.0
    client_hello_sent_ms: Optional[float] = None
    #: Arrival of the first ACK frame from the peer (the wild prober's
    #: IACK-detection signal) and whether it was coalesced with the
    #: ServerHello in the same datagram.
    first_ack_received_ms: Optional[float] = None
    first_ack_coalesced_with_sh: Optional[bool] = None
    server_hello_received_ms: Optional[float] = None
    handshake_complete_ms: Optional[float] = None
    handshake_confirmed_ms: Optional[float] = None
    #: Time to first byte: first STREAM payload byte received (for
    #: HTTP/3 this is the server's control-stream SETTINGS).
    ttfb_ms: Optional[float] = None
    #: First payload byte on the request/response stream (stream 0) —
    #: the "first payload byte after the loss event" of Appendix F.
    response_ttfb_ms: Optional[float] = None
    response_complete_ms: Optional[float] = None
    first_rtt_sample_ms: Optional[float] = None
    first_pto_ms: Optional[float] = None
    aborted: Optional[str] = None
    probes_sent: int = 0
    spurious_retransmissions: int = 0
    amplification_blocked_events: int = 0
    datagrams_sent: int = 0
    datagrams_received: int = 0
    invalid_drops: int = 0

    def relative(self, value: Optional[float]) -> Optional[float]:
        if value is None:
            return None
        return value - self.start_ms

    @property
    def ttfb_relative_ms(self) -> Optional[float]:
        return self.relative(self.ttfb_ms)

    @property
    def response_ttfb_relative_ms(self) -> Optional[float]:
        return self.relative(self.response_ttfb_ms)

    @property
    def completed(self) -> bool:
        return self.response_complete_ms is not None and self.aborted is None


class PnRangeTracker:
    """Incrementally compressed record of received packet numbers.

    Packets overwhelmingly arrive in order, so extending the newest
    range is the O(1) fast path; building an ACK frame reads the
    ranges straight off instead of re-sorting the full receive history
    on every ACK sent (the aioquic ``RangeSet`` idiom).
    """

    __slots__ = ("_ranges",)

    def __init__(self) -> None:
        #: Inclusive ``[low, high]`` ranges sorted ascending by low.
        self._ranges: List[List[int]] = []

    def add(self, pn: int) -> None:
        ranges = self._ranges
        if ranges:
            last = ranges[-1]
            if pn == last[1] + 1:  # in-order arrival
                last[1] = pn
                return
            if last[0] <= pn <= last[1]:  # duplicate of newest range
                return
        else:
            ranges.append([pn, pn])
            return
        # Reordered arrival: find the insertion point (rare path).
        idx = bisect.bisect_right(ranges, pn, key=lambda r: r[0])
        if idx > 0 and ranges[idx - 1][1] >= pn - 1:
            prev = ranges[idx - 1]
            if pn <= prev[1]:
                return  # duplicate
            prev[1] = pn
            idx -= 1
        else:
            ranges.insert(idx, [pn, pn])
        # Merge forward if the next range now touches.
        while idx + 1 < len(ranges) and ranges[idx + 1][0] <= ranges[idx][1] + 1:
            ranges[idx][1] = max(ranges[idx][1], ranges[idx + 1][1])
            del ranges[idx + 1]

    def __bool__(self) -> bool:
        return bool(self._ranges)

    def ranges_descending(self) -> Tuple[Tuple[int, int], ...]:
        """ACK-frame shape: ``(low, high)`` sorted descending by high."""
        return tuple((low, high) for low, high in reversed(self._ranges))


@dataclass(slots=True)
class _AckSpaceState:
    received_pns: PnRangeTracker = field(default_factory=PnRangeTracker)
    needs_ack: bool = False
    eliciting_since_ack: int = 0
    #: Arrival time of the oldest unacknowledged ack-eliciting packet
    #: (to report ack_delay honestly).
    oldest_unacked_ms: Optional[float] = None



def recovery_config_for(
    profile: ImplProfile, recovery_profile: RecoveryProfile
) -> RecoveryConfig:
    """The :class:`RecoveryConfig` an implementation profile and a
    recovery-lab profile resolve to (immutable in use, so shareable)."""
    return RecoveryConfig(
        default_pto_ms=profile.default_pto_ms,
        max_ack_delay_ms=profile.max_ack_delay_ms,
        rtt_variant=profile.rtt_variant,
        use_initial_ack_rtt_sample=profile.use_initial_ack_rtt_sample,
        anti_deadlock_probe_from_sent_time=profile.anti_deadlock_probe_from_sent_time,
        misinit_srtt_probability=profile.misinit_srtt_probability,
        misinit_srtt_ms=profile.misinit_srtt_ms,
        loss_detector=recovery_profile.loss_detector,
    )


class Endpoint:
    """Base class for :class:`ClientConnection` / :class:`ServerConnection`."""

    is_client: bool = True
    #: A client never validates the server's address; the server flips
    #: this on the first Handshake packet (RFC 9000 §8.1).
    _peer_validated: bool = True

    def __init__(
        self,
        loop: EventLoop,
        profile: ImplProfile,
        rng: Optional[random.Random] = None,
        qlog: Optional[QlogWriter] = None,
        name: str = "endpoint",
        draws: Optional[BehaviorDraws] = None,
        recovery_profile: Optional[RecoveryProfile] = None,
        recovery_config: Optional[RecoveryConfig] = None,
    ):
        self.loop = loop
        self.profile = profile
        #: The recovery-lab strategy bundle (CC / loss detection / ack
        #: policy); the default reproduces the pre-lab stack exactly.
        self.recovery_profile = (
            recovery_profile if recovery_profile is not None else DEFAULT_PROFILE
        )
        self.rng = rng if rng is not None else random.Random(0)
        #: Behavior randomness. Without an explicit ``draws`` the
        #: shared-stream semantics apply (draws interleave on ``rng``).
        self.draws = draws if draws is not None else RngDraws(self.rng)
        self.name = name
        self.qlog = qlog if qlog is not None else QlogWriter(
            name, profile.exposure_policy(), self.rng
        )
        #: Hoisted qlog retention flag — consulted per packet on both
        #: the send and receive paths.
        self._qlog_record = self.qlog.record_events
        # Callers that build many endpoints pass the (shareable) config
        # these two profiles resolve to instead of rebuilding it.
        if recovery_config is None:
            recovery_config = recovery_config_for(profile, self.recovery_profile)
        self.recovery = Recovery(
            recovery_config, rng=self.draws.misinit_rng(), is_client=self.is_client
        )
        self.cc = make_controller(self.recovery_profile.cc)
        self._ack_policy = self.recovery_profile.make_ack_policy()
        self.streams = StreamSet()
        self.cids = CidRegistry()
        self.crypto_send: Dict[Space, CryptoSendBuffer] = {
            Space.INITIAL: CryptoSendBuffer(),
            Space.HANDSHAKE: CryptoSendBuffer(),
        }
        self.crypto_recv: Dict[Space, CryptoReceiveBuffer] = {
            Space.INITIAL: CryptoReceiveBuffer(),
            Space.HANDSHAKE: CryptoReceiveBuffer(),
        }
        #: Expected total CRYPTO stream length per space, learned from
        #: frame metadata (stands in for TLS message parsing).
        self.crypto_expected: Dict[Space, Optional[int]] = {
            Space.INITIAL: None,
            Space.HANDSHAKE: None,
        }
        #: Indexed by Space.
        self._ack_state: List[_AckSpaceState] = [_AckSpaceState() for _ in Space]
        self.stats = ConnectionStats(start_ms=loop.now)
        self.transmit: Optional[Callable[[Datagram, int], None]] = None
        self.closed = False
        self._loss_timer: Optional[Timer] = None
        self._ack_timer: Optional[Timer] = None
        self._busy_until_ms = 0.0
        #: Datagrams delivered but not yet processed (burst tracking:
        #: standalone acks are deferred until the burst is drained, as
        #: real stacks ack once per receive batch).
        self._datagrams_queued = 0
        #: The coalesced-crypto processing penalty models TLS key
        #: derivation and signature verification — paid once.
        self._crypto_penalty_paid = False
        self._pending_packets: List[Packet] = []
        #: While a receive pass (or timer callback that ends with an
        #: explicit re-arm) is running, sends skip the per-call loss
        #: timer re-arm — the pass re-arms once at its end.
        self._suspend_rearm = False
        #: ``recovery.state_version`` at the last loss-timer re-arm.
        self._armed_version = -1
        self._has_handshake_keys = not self.is_client
        self._has_app_keys = not self.is_client
        self.handshake_complete = False
        self.handshake_confirmed = False
        self._ping_ack_drops_left = 1
        #: pn -> True for PING probe packets we sent in the Initial
        #: space (for the quiche drop quirk).
        self._initial_ping_pns: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach_transport(self, transmit: Optional[Callable[[Datagram, int], None]]) -> None:
        """Provide the function that puts a datagram on the wire
        (``None``: unwired, and a send raises ``RuntimeError``)."""
        self.transmit = transmit

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def on_datagram(self, dgram: Datagram) -> None:
        """Network delivery callback: queue the datagram behind the
        endpoint's (simulated) processing."""
        if self.closed:
            return
        self.stats.datagrams_received += 1
        if self._crypto_penalty_paid or not self.is_client:
            delay = self.profile.base_processing_ms
        else:
            delay = self._processing_delay(dgram)
        now = self.loop.now
        busy = self._busy_until_ms
        start = (now if now > busy else busy) + delay
        self._busy_until_ms = start
        self._datagrams_queued += 1
        self.loop.post_at(start, self._process_datagram, dgram)

    def _processing_delay(self, dgram: Datagram) -> float:
        """Client stacks take measurably longer to process a datagram
        that coalesces an ACK with TLS crypto than a bare ACK (§4.1
        "QUIC stack delays") — the physical origin of the inflated
        first RTT sample under WFC."""
        if (
            self.is_client
            and not self._crypto_penalty_paid
            and dgram.contains_crypto()
        ):
            self._crypto_penalty_paid = True
            jitter = self.draws.penalty_jitter(self.profile.penalty_jitter_ms)
            return max(0.01, self.profile.coalesced_processing_penalty_ms + jitter)
        return self.profile.base_processing_ms

    def _process_datagram(self, dgram: Datagram) -> None:
        if self._datagrams_queued > 0:
            self._datagrams_queued -= 1
        if self.closed:
            return
        if self.profile.drops_ping_ack_coalesced and self._should_drop_invalid(dgram):
            self.stats.invalid_drops += 1
            return
        self._suspend_rearm = True
        try:
            for packet in dgram.packets:
                self._process_packet(packet, dgram)
            if self._pending_packets:
                self._drain_pending()
            self.after_datagram(dgram)
            self._maybe_send_acks()
        finally:
            self._suspend_rearm = False
        self._rearm_loss_timer()

    def _should_drop_invalid(self, dgram: Datagram) -> bool:
        """quiche quirk (§4.1): replies to PING frames are dropped as
        invalid — together with any packets coalesced with them."""
        for packet in dgram.packets:
            if packet.packet_type is not PacketType.INITIAL:
                continue
            for ack in packet.ack_frames():
                if not any(ack.acks(pn) for pn in self._initial_ping_pns):
                    continue
                if len(dgram.packets) > 1 or packet.crypto_frames():
                    # The PING reply is coalesced with real content;
                    # dropping it once forces a server retransmission
                    # ("requires retransmission of the dropped
                    # information", §4.1).
                    if self._ping_ack_drops_left <= 0:
                        return False
                    self._ping_ack_drops_left -= 1
                return True
        return False

    def _keys_available(self, packet: Packet) -> bool:
        """Servers defer 1-RTT processing until the handshake is
        complete (client Finished verified)."""
        if packet.packet_type is PacketType.HANDSHAKE:
            return self._has_handshake_keys
        if packet.packet_type is PacketType.ONE_RTT:
            return self._has_app_keys and (self.is_client or self.handshake_complete)
        return True

    def _drain_pending(self) -> None:
        still_pending: List[Packet] = []
        for packet in self._pending_packets:
            if self._keys_available(packet):
                self._process_packet(packet, None)
            else:
                still_pending.append(packet)
        self._pending_packets = still_pending

    def _process_packet(self, packet: Packet, dgram: Optional[Datagram]) -> None:
        space = packet.space
        if space is Space.HANDSHAKE and not self._peer_validated:
            self._on_peer_validated()
        if self.recovery.spaces[space].discarded:
            return
        if space is not Space.INITIAL and not self._keys_available(packet):
            self._pending_packets.append(packet)
            return
        now = self.loop.now
        ack_state = self._ack_state[space]
        ack_state.received_pns.add(packet.packet_number)
        if packet.ack_eliciting:
            ack_state.needs_ack = True
            ack_state.eliciting_since_ack += 1
            if ack_state.oldest_unacked_ms is None:
                ack_state.oldest_unacked_ms = now
        record = self._qlog_record
        first_ack: Optional[AckFrame] = None
        newly_acked: List[int] = []
        for frame in packet.frames:
            kind = type(frame)
            if kind is StreamFrame:
                self._handle_stream(frame)
            elif kind is AckFrame:
                if first_ack is None:
                    first_ack = frame
                acked = self._handle_ack(space, frame)
                if record:
                    newly_acked.extend(sp.packet_number for sp in acked)
            elif kind is CryptoFrame:
                self._handle_crypto(space, frame)
            elif kind is HandshakeDoneFrame:
                self.on_handshake_done()
            elif kind is NewConnectionIdFrame:
                self._handle_new_cid(frame)
            # PING, PADDING, MAX_DATA: nothing to do.
        if first_ack is not None and self.stats.first_ack_received_ms is None:
            self.stats.first_ack_received_ms = now
            self.stats.first_ack_coalesced_with_sh = (
                dgram is not None and dgram.contains_crypto()
            )
        if not record:
            return
        extra_data = {}
        if first_ack is not None:
            extra_data["first_ack_delay_ms"] = first_ack.ack_delay_ms
        self.qlog.packet(
            now,
            "packet_received",
            extra_data,
            packet.packet_type.value,
            packet.packet_number,
            _SPACE_NAMES[space],
            packet.size,
            packet.ack_eliciting,
            tuple(f.describe() for f in packet.frames),
            tuple(newly_acked),
        )

    def _handle_new_cid(self, frame: NewConnectionIdFrame) -> None:
        self.cids.register(frame.sequence, frame.connection_id)
        for seq in range(frame.retire_prior_to):
            fresh = self.cids.retire(seq)
            if not fresh and self.profile.aborts_on_duplicate_cid_retirement:
                # Only a client profile has this quirk (quiche, §4.2);
                # ClientConnection says when it applies.
                if self._dup_cid_abort_applies():
                    self.abort("duplicate connection ID retirement")
                    return

    # -- ACK processing -------------------------------------------------

    def _handle_ack(self, space: Space, ack: AckFrame) -> List[SentPacket]:
        """Process one ACK frame; returns the packets it newly acked."""
        now = self.loop.now
        recovery = self.recovery
        result = recovery.on_ack_received(space, ack, now)
        for sp in result.newly_acked:
            if sp.in_flight:
                self.cc.on_packet_acked(sp.size, sp.time_sent_ms, now_ms=now)
            self._mark_frames_acked(space, sp)
        if result.rtt_sample_ms is not None:
            if self.stats.first_rtt_sample_ms is None:
                self.stats.first_rtt_sample_ms = result.rtt_sample_ms
                self.stats.first_pto_ms = recovery.pto_for_space(space)
            est = recovery.estimator
            self.qlog.metrics_updated(
                now, est.smoothed_rtt, est.rttvar, est.latest_rtt, est.min_rtt,
                recovery.pto_count,
            )
        if result.lost:
            self._on_packets_lost(space, result.lost)
        return result.newly_acked

    def _mark_frames_acked(self, space: Space, sp: SentPacket) -> None:
        for frame in sp.packet.frames:
            kind = type(frame)
            if kind is StreamFrame:
                send_stream = self.streams.send.get(frame.stream_id)
                if send_stream is not None:
                    send_stream.mark_acked(frame.offset, frame.length, frame.fin)
            elif kind is CryptoFrame and space in self.crypto_send:
                self.crypto_send[space].mark_acked(frame.offset, frame.end)

    def _on_packets_lost(self, space: Space, lost: List[SentPacket]) -> None:
        total = sum(sp.size for sp in lost if sp.in_flight or sp.declared_lost)
        latest = max(sp.time_sent_ms for sp in lost)
        self.cc.on_packets_lost(total, latest, self.loop.now)
        self._retransmit_lost(space, lost)

    def _retransmit_lost(self, space: Space, lost: List[SentPacket]) -> None:
        """Re-send the retransmittable content of lost packets."""
        crypto_ranges: List[Tuple[int, int]] = []
        stream_chunks: List[StreamFrame] = []
        special: List[Frame] = []
        for sp in lost:
            for frame in sp.packet.frames:
                if isinstance(frame, CryptoFrame):
                    crypto_ranges.append((frame.offset, frame.end))
                elif isinstance(frame, StreamFrame):
                    stream_chunks.append(frame)
                elif isinstance(frame, (HandshakeDoneFrame, NewConnectionIdFrame)):
                    special.append(frame)
        packets: List[Packet] = []
        if crypto_ranges:
            packets.extend(self._crypto_packets(space, crypto_ranges))
        if stream_chunks or special:
            frames: List[Frame] = list(special)
            for chunk in stream_chunks:
                frames.append(
                    StreamFrame(
                        stream_id=chunk.stream_id,
                        offset=chunk.offset,
                        length=chunk.length,
                        fin=chunk.fin,
                        label=chunk.label,
                    )
                )
            packets.append(self.build_packet(Space.APPLICATION, tuple(frames)))
        if packets:
            self.send_packets(packets)

    # -- CRYPTO / STREAM handling ----------------------------------------

    def _handle_crypto(self, space: Space, frame: CryptoFrame) -> None:
        if space not in self.crypto_recv:
            return
        if frame.stream_total:
            self.crypto_expected[space] = frame.stream_total
        self.crypto_recv[space].receive(frame.offset, frame.length)
        self.on_crypto_progress(space)

    def _handle_stream(self, frame: StreamFrame) -> None:
        now = self.loop.now
        stream = self.streams.get_recv(frame.stream_id)
        stream.receive(frame.offset, frame.length, frame.fin, now)
        if frame.length > 0:
            stats = self.stats
            if stats.ttfb_ms is None:
                stats.ttfb_ms = now
            if frame.stream_id == 0 and stats.response_ttfb_ms is None:
                stats.response_ttfb_ms = now
        self.on_stream_data(frame)

    # ------------------------------------------------------------------
    # hooks implemented by client/server
    # ------------------------------------------------------------------

    def on_crypto_progress(self, space: Space) -> None:  # pragma: no cover
        raise NotImplementedError

    def on_stream_data(self, frame: StreamFrame) -> None:  # pragma: no cover
        raise NotImplementedError

    def on_handshake_done(self) -> None:
        """HANDSHAKE_DONE processing (client overrides)."""

    def _on_peer_validated(self) -> None:  # pragma: no cover
        raise NotImplementedError

    def after_datagram(self, dgram: Datagram) -> None:
        """Called after all packets of a datagram were processed."""

    # ------------------------------------------------------------------
    # packet construction and sending
    # ------------------------------------------------------------------

    def build_packet(
        self,
        space: Space,
        frames: Tuple[Frame, ...],
        include_ack: bool = True,
        ack_delay_ms: Optional[float] = None,
    ) -> Packet:
        """Build a packet, prepending an ACK for the space when one is
        owed (bundling acks with outgoing data, as stacks do)."""
        all_frames: Tuple[Frame, ...] = frames
        ack_state = self._ack_state[space]
        if include_ack and ack_state.needs_ack and ack_state.received_pns:
            delay = ack_delay_ms
            if delay is None:
                delay = self._ack_delay_for(space)
            ack = AckFrame(ack_state.received_pns.ranges_descending(), delay)
            all_frames = (ack,) + all_frames
            ack_state.needs_ack = False
            ack_state.eliciting_since_ack = 0
            ack_state.oldest_unacked_ms = None
        return Packet(
            _SPACE_TO_TYPE[space], self.recovery.next_packet_number(space), all_frames
        )

    def _ack_delay_for(self, space: Space) -> float:
        if space is Space.INITIAL:
            return self.profile.initial_ack_delay_ms if not self.is_client else 0.0
        if space is Space.HANDSHAKE:
            if not self.is_client and self.profile.handshake_ack_delay_ms is not None:
                return self.profile.handshake_ack_delay_ms
            return 0.0
        oldest = self._ack_state[space].oldest_unacked_ms
        if oldest is None:
            return 0.0
        return max(0.0, self.loop.now - oldest)

    def _crypto_packets(
        self, space: Space, ranges: List[Tuple[int, int]]
    ) -> List[Packet]:
        """CRYPTO packets re-sending the given byte ranges."""
        buf = self.crypto_send.get(space)
        if buf is None:
            return []
        packets: List[Packet] = []
        for start, end in ranges:
            cursor = start
            while cursor < end:
                length = min(MAX_FRAME_PAYLOAD, end - cursor)
                frame = CryptoFrame(
                    offset=cursor,
                    length=length,
                    label=buf.label_for(cursor, cursor + length),
                    stream_total=buf.length,
                )
                packets.append(self.build_packet(space, (frame,)))
                cursor += length
        return packets

    def send_packets(
        self,
        packets: Sequence[Packet],
        is_probe: bool = False,
        group_into_datagrams: Optional[List[List[Packet]]] = None,
    ) -> None:
        """Coalesce packets into datagrams and transmit them.

        ``group_into_datagrams`` overrides automatic coalescing with an
        explicit grouping (used for the profile-specific second client
        flight split).
        """
        if group_into_datagrams is not None:
            groups = group_into_datagrams
        elif packets:
            groups = coalesce_groups(packets)
        else:
            return
        for group in groups:
            if self.is_client:
                # Coalescing order puts an Initial packet first, so
                # "contains an Initial" reads one packet.
                pad = group[0].packet_type is PacketType.INITIAL
            else:
                pad = self._pad_server_datagram(group)  # ServerConnection's policy
            if pad:
                group = pad_initial(group, INITIAL_MIN_DATAGRAM)
            self._send_datagram(Datagram(group, self.name), is_probe)
        if not self._suspend_rearm:
            self._rearm_loss_timer()

    def _send_datagram(self, dgram: Datagram, is_probe: bool = False) -> None:
        transmit = self.transmit
        if transmit is None:
            raise RuntimeError(f"{self.name}: transport not attached")
        now = self.loop.now
        recovery = self.recovery
        cc = self.cc
        for packet in dgram.packets:
            size = packet.size
            recovery.on_packet_sent(packet, now, size, True, is_probe)
            cc.on_packet_sent(size)
            if is_probe and packet.packet_type is PacketType.INITIAL and any(
                type(f) is PingFrame for f in packet.frames
            ):
                self._initial_ping_pns.setdefault(packet.packet_number, False)
            if self._qlog_record:
                self.qlog.packet(
                    now,
                    "packet_sent",
                    {},
                    packet.packet_type.value,
                    packet.packet_number,
                    _SPACE_NAMES[packet.space],
                    size,
                    packet.ack_eliciting,
                    tuple(f.describe() for f in packet.frames),
                )
        self.stats.datagrams_sent += 1
        transmit(dgram, dgram.size)

    # ------------------------------------------------------------------
    # acknowledgment policy
    # ------------------------------------------------------------------

    def _maybe_send_acks(self) -> None:
        if self.closed:
            return
        ack_state = self._ack_state
        if ack_state[Space.INITIAL].needs_ack or ack_state[Space.HANDSHAKE].needs_ack:
            self._send_handshake_acks()
        app_state = ack_state[Space.APPLICATION]
        if app_state.needs_ack and self._has_app_keys:
            # The ack policy strategy decides the cadence; the default
            # policy reads it straight off the ImplProfile.
            if app_state.eliciting_since_ack >= self._ack_policy.ack_every_n(
                self.profile
            ):
                self._send_app_ack()
            elif self._ack_timer is None:
                self._ack_timer = self.loop.call_later(
                    self._ack_policy.max_ack_delay_ms(self.profile),
                    self._on_ack_timer,
                )

    def _send_handshake_acks(self) -> None:
        ack_packets: List[Packet] = []
        for space in (Space.INITIAL, Space.HANDSHAKE):
            state = self._ack_state[space]
            if state.needs_ack and not self.recovery.spaces[space].discarded:
                if not self.is_client and not self.profile.sends_initial_ack:
                    state.needs_ack = False
                    continue
                if self._suppress_immediate_ack(space):
                    continue
                if self._datagrams_queued > 0:
                    # More datagrams of this burst are still queued;
                    # acknowledge once per receive batch.
                    continue
                packet = self.build_packet(space, ())
                if packet.frames:
                    ack_packets.append(packet)
        if ack_packets:
            # Initial + Handshake acks ride in one (padded) datagram.
            self.send_packets(ack_packets)

    def _suppress_immediate_ack(self, space: Space) -> bool:
        """Server hook: the WFC server withholds its Initial ACK until
        the certificate is available."""
        return False

    def _send_app_ack(self) -> None:
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        state = self._ack_state[Space.APPLICATION]
        if not state.needs_ack:
            return
        packet = self.build_packet(Space.APPLICATION, ())
        if packet.frames:
            self.send_packets([packet])

    def _on_ack_timer(self) -> None:
        self._ack_timer = None
        if not self.closed:
            self._send_app_ack()

    # ------------------------------------------------------------------
    # loss-detection timer
    # ------------------------------------------------------------------

    def _rearm_loss_timer(self) -> None:
        if self.closed:
            return
        recovery = self.recovery
        if recovery.state_version == self._armed_version:
            # Nothing the deadline depends on changed since the last
            # re-arm: it is where it was, or (the anti-deadlock PTO
            # clamps against ``now``) later, and either way the armed
            # timer already fires at or before it.
            return
        now = self.loop.now
        deadline = recovery.loss_detection_deadline(now)
        self._armed_version = recovery.state_version
        timer = self._loss_timer
        if deadline is None:
            if timer is not None:
                timer.cancel()
                self._loss_timer = None
            return
        when = deadline[0]
        if when < now:
            when = now
        if timer is not None:
            if timer.when <= when:
                # The armed timer fires at or before the new deadline;
                # keep it — :meth:`_on_loss_timer` re-checks the actual
                # deadline at fire time and re-arms when it woke early.
                # This avoids a cancel + allocation on the (very common)
                # case of the deadline moving later.
                return
            timer.cancel()
        self._loss_timer = self.loop.call_at(when, self._on_loss_timer)

    def _on_loss_timer(self) -> None:
        self._loss_timer = None
        self._armed_version = -1
        if self.closed:
            return
        now = self.loop.now
        deadline = self.recovery.loss_detection_deadline(now)
        if deadline is None:
            return
        when, space, kind = deadline
        if when > now + 1e-6:
            self._rearm_loss_timer()
            return
        self._suspend_rearm = True
        try:
            if kind == "loss":
                lost_by_space: Dict[Space, List[SentPacket]] = {}
                for sp_space, sp in self.recovery.detect_lost_on_timer(now):
                    lost_by_space.setdefault(sp_space, []).append(sp)
                for sp_space, lost in lost_by_space.items():
                    self._on_packets_lost(sp_space, lost)
            else:
                self.recovery.on_pto_fired()
                if self.recovery.pto_count > MAX_PTO_COUNT:
                    self.abort("too many consecutive PTOs")
                    return
                self._on_pto(space)
        finally:
            self._suspend_rearm = False
        self._rearm_loss_timer()

    def _on_pto(self, space: Space) -> None:
        """Send a probe (RFC 9002 §6.2.4): retransmit outstanding data
        in the space when available, else a PING."""
        self.stats.probes_sent += 1
        packets: List[Packet] = []
        ranges = self._unacked_crypto_ranges(space)
        if ranges:
            packets.extend(self._crypto_packets(space, ranges))
        else:
            app_ranges = self._unacked_app_data()
            if space is Space.APPLICATION and app_ranges:
                packets.append(
                    self.build_packet(Space.APPLICATION, tuple(app_ranges))
                )
            else:
                packets.append(self.build_packet(space, (PingFrame(),)))
        # Opportunistically bundle outstanding application data with a
        # handshake-space probe (RFC 9002 recommends bundling tail
        # bytes; stacks coalesce a 1-RTT retransmission).
        if (
            self.is_client
            and space is not Space.APPLICATION
            and self._has_app_keys
        ):
            app_frames = self._unacked_app_data()
            if app_frames:
                packets.append(
                    self.build_packet(Space.APPLICATION, tuple(app_frames))
                )
        self.send_packets(packets, is_probe=True)

    def _unacked_crypto_ranges(self, space: Space) -> List[Tuple[int, int]]:
        buf = self.crypto_send.get(space)
        if buf is None or self.recovery.spaces[space].discarded:
            return []
        return buf.unacked_ranges()

    def _unacked_app_data(self) -> List[StreamFrame]:
        frames: List[StreamFrame] = []
        for stream in self.streams.send.values():
            for start, end in stream.unacked_sent_ranges():
                cursor = start
                while cursor < end:
                    length = min(MAX_FRAME_PAYLOAD, end - cursor)
                    fin = (
                        stream.fin_queued
                        and cursor + length == stream.total_length
                    )
                    frames.append(
                        StreamFrame(
                            stream_id=stream.stream_id,
                            offset=cursor,
                            length=length,
                            fin=fin,
                            label=stream.label,
                        )
                    )
                    cursor += length
            if (
                stream.fin_queued
                and not stream.fin_acked
                and not stream.unacked_sent_ranges()
                and stream.bytes_unsent == 0
                and stream.total_length == 0
            ):
                frames.append(
                    StreamFrame(
                        stream_id=stream.stream_id,
                        offset=0,
                        length=0,
                        fin=True,
                        label=stream.label,
                    )
                )
        return frames

    # ------------------------------------------------------------------
    # key lifecycle / shutdown
    # ------------------------------------------------------------------

    def discard_space(self, space: Space) -> None:
        for sp in self.recovery.spaces[space].sent.values():
            if sp.in_flight and not sp.declared_lost:
                self.cc.on_packet_discarded(sp.size)
        self.recovery.discard_space(space, now_ms=self.loop.now)
        self._ack_state[space] = _AckSpaceState()
        self._rearm_loss_timer()

    def abort(self, reason: str) -> None:
        if self.closed:
            return
        self.closed = True
        self.stats.aborted = reason
        self._cancel_timers()

    def finish(self) -> None:
        """Graceful local teardown once the exchange completed."""
        self.closed = True
        self._cancel_timers()

    def _cancel_timers(self) -> None:
        if self._loss_timer is not None:
            self._loss_timer.cancel()
            self._loss_timer = None
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None

    def snapshot_stats(self) -> ConnectionStats:
        self.stats.probes_sent = self.recovery.probes_sent
        self.stats.spurious_retransmissions = self.recovery.spurious_retransmissions
        return self.stats
