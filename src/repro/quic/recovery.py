"""Loss detection and recovery (RFC 9002).

This module implements the machinery whose interaction with instant
ACK the paper analyzes:

* the RTT estimator (§5): the **first sample initializes**
  ``smoothed_rtt = sample`` and ``rttvar = sample/2``, so the first
  PTO is ``~3 x sample`` — and "the PTO initialization disregards
  [the acknowledgment] delay. Therefore, the only option to provide
  the client with an accurate PTO is via the instant ACK" (§2);
* the Probe Timeout (§6.2) with exponential backoff, reset when an
  ack-eliciting packet is sent or newly acknowledged and when keys
  are discarded;
* the anti-deadlock client PTO (§6.2.2.1): a client arms the PTO
  even with nothing in flight while the handshake is incomplete;
* packet- and time-threshold loss detection (§6.1).

Implementation quirks the paper documents (Appendix E/F) are exposed
as :class:`RecoveryConfig` switches so the eight client profiles can
reproduce their stacks' behavior:

* ``use_initial_ack_rtt_sample=False`` — picoquic "ignores the lower
  RTT induced by IACK";
* ``anti_deadlock_probe_from_sent_time=True`` — mvfst and picoquic:
  "receiving an instant ACK does not cause the client to send probe
  packets" (the anti-deadlock timer stays based on the default PTO at
  the last ack-eliciting send, instead of re-arming from *now* with
  the fresh RTT estimate);
* ``rtt_variant="aioquic"`` — aioquic "uses a different formula to
  calculate RTT variance";
* ``misinit_srtt_probability`` — go-x-net "partially initializes the
  smoothed RTT and RTT variation incorrectly".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.quic.frames import AckFrame
from repro.quic.packet import Packet, Space

#: RFC 9002 timer granularity (kGranularity), 1 ms.
GRANULARITY_MS = 1.0

#: RFC 9002 packet reordering threshold (kPacketThreshold).
PACKET_THRESHOLD = 3

#: RFC 9002 time reordering threshold (kTimeThreshold), 9/8.
TIME_THRESHOLD = 9.0 / 8.0

#: All packet number spaces in index order (mirrors the Space IntEnum).
_ALL_SPACES = (Space.INITIAL, Space.HANDSHAKE, Space.APPLICATION)


@dataclass(slots=True)
class RecoveryConfig:
    """Tunables and quirk switches for one endpoint's recovery."""

    #: PTO used before any RTT sample exists. RFC 9002 recommends an
    #: initial RTT of 333 ms (PTO 999 ms); the paper's Table 4 shows
    #: implementations choose much lower defaults.
    default_pto_ms: float = 999.0
    max_ack_delay_ms: float = 25.0
    granularity_ms: float = GRANULARITY_MS
    packet_threshold: int = PACKET_THRESHOLD
    time_threshold: float = TIME_THRESHOLD
    #: "standard" per RFC 9002 §5.3, or "aioquic" (see RttEstimator).
    rtt_variant: str = "standard"
    #: When False, ACK frames arriving in the Initial space do not
    #: produce RTT samples (picoquic quirk).
    use_initial_ack_rtt_sample: bool = True
    #: When True, the anti-deadlock PTO (nothing in flight, handshake
    #: incomplete) fires at ``last_ack_eliciting_sent + default_pto *
    #: 2^count`` instead of ``now + pto * 2^count`` (mvfst/picoquic).
    anti_deadlock_probe_from_sent_time: bool = False
    #: Probability that the first sample mis-initializes srtt
    #: (go-x-net quirk) and the value it is mis-initialized to.
    misinit_srtt_probability: float = 0.0
    misinit_srtt_ms: float = 90.0
    #: Loss-detection strategy (:data:`LOSS_DETECTORS` name):
    #: ``"rfc9002"`` combines the packet and time thresholds (§6.1),
    #: ``"packet"`` / ``"time"`` isolate one axis for the recovery lab.
    loss_detector: str = "rfc9002"


class LossDetector:
    """Strategy interface for the RFC 9002 §6.1 loss-classification seam.

    :meth:`classify` judges one outstanding packet already covered by
    ``largest_acked`` and returns ``(lost, loss_time_candidate_ms)``:
    either the packet is declared lost now, or an optional deadline at
    which the time threshold would declare it (``None`` when the
    strategy sets no loss timer and leaves the tail to the PTO).

    The time condition MUST be the exact float expression the loss
    timer fires on (``time_sent + loss_delay <= now + 1e-9``, mirroring
    :meth:`Recovery.detect_lost_on_timer`). Phrasing it as
    ``time_sent <= now - loss_delay`` is mathematically identical but
    rounds differently, and a candidate landing one ulp below ``now``
    then re-arms the timer at the same instant forever — a same-time
    livelock.
    """

    name = "base"

    def classify(
        self,
        *,
        packet_number: int,
        time_sent_ms: float,
        largest_acked: int,
        now_ms: float,
        loss_delay_ms: float,
        packet_threshold: int,
    ) -> Tuple[bool, Optional[float]]:
        raise NotImplementedError


class Rfc9002LossDetector(LossDetector):
    """Packet- **and** time-threshold detection — the RFC 9002 default."""

    name = "rfc9002"

    def classify(
        self,
        *,
        packet_number: int,
        time_sent_ms: float,
        largest_acked: int,
        now_ms: float,
        loss_delay_ms: float,
        packet_threshold: int,
    ) -> Tuple[bool, Optional[float]]:
        candidate = time_sent_ms + loss_delay_ms
        if (
            candidate <= now_ms + 1e-9
            or largest_acked - packet_number >= packet_threshold
        ):
            return True, None
        return False, candidate


class PacketThresholdLossDetector(LossDetector):
    """Reordering-threshold detection only: a packet is lost when
    ``packet_threshold`` later packets were acknowledged. No loss timer
    is ever armed — undetected tail losses wait for the PTO, which is
    exactly the degradation the recovery-lab sweeps measure."""

    name = "packet"

    def classify(
        self,
        *,
        packet_number: int,
        time_sent_ms: float,
        largest_acked: int,
        now_ms: float,
        loss_delay_ms: float,
        packet_threshold: int,
    ) -> Tuple[bool, Optional[float]]:
        if largest_acked - packet_number >= packet_threshold:
            return True, None
        return False, None


class TimeThresholdLossDetector(LossDetector):
    """Time-threshold detection only: a packet is lost once it has
    been outstanding for ``time_threshold × max(srtt, latest_rtt)``
    past an acknowledged successor; the packet-count shortcut is off,
    so isolated reordering never declares loss early."""

    name = "time"

    def classify(
        self,
        *,
        packet_number: int,
        time_sent_ms: float,
        largest_acked: int,
        now_ms: float,
        loss_delay_ms: float,
        packet_threshold: int,
    ) -> Tuple[bool, Optional[float]]:
        candidate = time_sent_ms + loss_delay_ms
        if candidate <= now_ms + 1e-9:
            return True, None
        return False, candidate


#: Strategy registry: config-facing name → detector class.
LOSS_DETECTORS = {
    Rfc9002LossDetector.name: Rfc9002LossDetector,
    PacketThresholdLossDetector.name: PacketThresholdLossDetector,
    TimeThresholdLossDetector.name: TimeThresholdLossDetector,
}


def make_loss_detector(name: str) -> LossDetector:
    """Instantiate a loss detector by registry name."""
    try:
        cls = LOSS_DETECTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown loss detector {name!r}; known: {sorted(LOSS_DETECTORS)}"
        ) from None
    return cls()


class RttEstimator:
    """RTT estimation per RFC 9002 §5.

    The ``aioquic`` variant updates ``smoothed_rtt`` *before* computing
    the deviation used for ``rttvar`` (the paper notes "aioquic uses a
    different formula to calculate RTT variance", Appendix E); the
    standard variant uses the pre-update ``smoothed_rtt``.
    """

    def __init__(
        self,
        variant: str = "standard",
        rng: Optional[random.Random] = None,
        misinit_probability: float = 0.0,
        misinit_srtt_ms: float = 90.0,
    ):
        if variant not in ("standard", "aioquic"):
            raise ValueError(f"unknown RTT variant {variant!r}")
        self.variant = variant
        self._rng = rng if rng is not None else random.Random(0)
        self._misinit_probability = misinit_probability
        self._misinit_srtt_ms = misinit_srtt_ms
        self.latest_rtt: Optional[float] = None
        self.min_rtt: Optional[float] = None
        self.smoothed_rtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.samples = 0
        self.misinitialized = False
        #: Bumped on every accepted sample; lets PTO consumers memoize
        #: derived values until the estimate actually changes.
        self.version = 0

    @property
    def has_sample(self) -> bool:
        return self.samples > 0

    def update(self, sample_ms: float, ack_delay_ms: float = 0.0) -> None:
        """Feed one RTT sample (RFC 9002 §5.3).

        The first sample initializes ``srtt = sample`` and
        ``rttvar = sample/2`` and **ignores the acknowledgment delay**
        — this asymmetry is the protocol-level root of the instant ACK
        advantage.
        """
        if sample_ms <= 0:
            raise ValueError(f"RTT sample must be positive: {sample_ms}")
        self.latest_rtt = sample_ms
        self.samples += 1
        self.version += 1
        if self.samples == 1:
            if (
                self._misinit_probability > 0.0
                and self._rng.random() < self._misinit_probability
            ):
                # go-x-net quirk: e.g. "reported RTT 33 ms, but smoothed
                # RTT is initialized at 90 ms" (§4.1).
                self.misinitialized = True
                self.min_rtt = sample_ms
                self.smoothed_rtt = self._misinit_srtt_ms
                self.rttvar = self._misinit_srtt_ms / 2.0
                return
            self.min_rtt = sample_ms
            self.smoothed_rtt = sample_ms
            self.rttvar = sample_ms / 2.0
            return
        assert self.min_rtt is not None
        assert self.smoothed_rtt is not None and self.rttvar is not None
        self.min_rtt = min(self.min_rtt, sample_ms)
        adjusted = sample_ms
        if adjusted >= self.min_rtt + ack_delay_ms:
            adjusted -= ack_delay_ms
        if self.variant == "standard":
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.smoothed_rtt - adjusted)
            self.smoothed_rtt = 0.875 * self.smoothed_rtt + 0.125 * adjusted
        else:  # aioquic variant: srtt updated first
            self.smoothed_rtt = 0.875 * self.smoothed_rtt + 0.125 * adjusted
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.smoothed_rtt - adjusted)

    def pto_base_ms(
        self,
        default_pto_ms: float,
        granularity_ms: float = GRANULARITY_MS,
        include_max_ack_delay: bool = False,
        max_ack_delay_ms: float = 25.0,
    ) -> float:
        """PTO before backoff: ``srtt + max(4*rttvar, granularity)``
        plus the peer's ``max_ack_delay`` for the application space;
        the configured default when no sample exists."""
        if not self.has_sample:
            return default_pto_ms
        assert self.smoothed_rtt is not None and self.rttvar is not None
        pto = self.smoothed_rtt + max(4.0 * self.rttvar, granularity_ms)
        if include_max_ack_delay:
            pto += max_ack_delay_ms
        return pto


@dataclass(slots=True)
class SentPacket:
    """Bookkeeping for one sent packet (RFC 9002 A.1.1)."""

    packet_number: int
    time_sent_ms: float
    ack_eliciting: bool
    in_flight: bool
    size: int
    packet: Packet
    #: Whether this packet was a PTO probe (for diagnostics).
    is_probe: bool = False
    declared_lost: bool = False


@dataclass(slots=True)
class SpaceState:
    """Per-packet-number-space recovery state."""

    next_packet_number: int = 0
    sent: Dict[int, SentPacket] = field(default_factory=dict)
    largest_acked: Optional[int] = None
    loss_time_ms: Optional[float] = None
    time_of_last_ack_eliciting_ms: Optional[float] = None
    discarded: bool = False
    #: Live count of ack-eliciting packets still in flight (not acked,
    #: not declared lost) — consulted on every timer re-arm, so it is
    #: maintained incrementally instead of scanning ``sent``.
    ack_eliciting_in_flight_count: int = 0


@dataclass(slots=True)
class AckResult:
    """Outcome of processing one ACK frame."""

    newly_acked: List[SentPacket]
    rtt_sample_ms: Optional[float]
    lost: List[SentPacket]


class Recovery:
    """Per-connection loss recovery across the three packet spaces."""

    def __init__(
        self,
        config: RecoveryConfig,
        rng: Optional[random.Random] = None,
        is_client: bool = True,
    ):
        self.config = config
        self.is_client = is_client
        self.loss_detector = make_loss_detector(config.loss_detector)
        self.estimator = RttEstimator(
            variant=config.rtt_variant,
            rng=rng,
            misinit_probability=config.misinit_srtt_probability,
            misinit_srtt_ms=config.misinit_srtt_ms,
        )
        # Indexed by Space (an IntEnum): list indexing is measurably
        # cheaper than enum-keyed dict hashing on the per-packet path.
        self.spaces: List[SpaceState] = [
            SpaceState(), SpaceState(), SpaceState(),
        ]
        #: Per-space memo of the backoff-free PTO, tagged with the
        #: estimator version it was computed at.
        self._pto_cache: List[Tuple[int, float]] = [(-1, 0.0)] * 3
        #: Version of the recovery state that the loss/PTO deadline
        #: depends on; bumped by every mutation. The endpoint skips its
        #: timer re-arm while this stands still, and re-arms between
        #: mutations reuse the memoized deadline.
        self.state_version = 0
        self._deadline_version = -1
        self._deadline: Optional[Tuple[float, Space, str]] = None
        self.pto_count = 0
        #: Anchor for the anti-deadlock PTO: the last time the PTO
        #: machinery was "reset" (ack-eliciting send, forward-progress
        #: ack, or key discard) — RFC 9002 §6.2.1.
        self.last_pto_reset_ms = 0.0
        #: Total PTO probes fired (diagnostics / "futile load" analysis).
        self.probes_sent = 0
        #: Retransmissions that the peer had already received
        #: (spurious); detected when a newly-acked packet was earlier
        #: declared lost and retransmitted.
        self.spurious_retransmissions = 0
        self._handshake_complete = False

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def next_packet_number(self, space: Space) -> int:
        state = self.spaces[space]
        pn = state.next_packet_number
        state.next_packet_number += 1
        return pn

    def on_packet_sent(
        self,
        packet: Packet,
        now_ms: float,
        size: int,
        in_flight: bool = True,
        is_probe: bool = False,
    ) -> SentPacket:
        state = self.spaces[packet.space]
        if state.discarded:
            raise RuntimeError(f"space {packet.space.name} already discarded")
        ack_eliciting = packet.ack_eliciting
        sp = SentPacket(
            packet.packet_number, now_ms, ack_eliciting, in_flight, size, packet, is_probe
        )
        state.sent[packet.packet_number] = sp
        if ack_eliciting:
            if in_flight:
                state.ack_eliciting_in_flight_count += 1
            state.time_of_last_ack_eliciting_ms = now_ms
            if now_ms > self.last_pto_reset_ms:
                self.last_pto_reset_ms = now_ms
        if is_probe:
            self.probes_sent += 1
        self.state_version += 1
        return sp

    # ------------------------------------------------------------------
    # receiving ACKs
    # ------------------------------------------------------------------

    def on_ack_received(
        self,
        space: Space,
        ack: AckFrame,
        now_ms: float,
    ) -> AckResult:
        """Process an ACK frame received in ``space`` (RFC 9002 A.7)."""
        state = self.spaces[space]
        if state.discarded:
            return AckResult([], None, [])
        newly_acked: List[SentPacket] = []
        largest_sp: Optional[SentPacket] = None
        any_eliciting = False
        sent = state.sent
        ranges = ack.ranges  # descending by high
        # ``sent`` is in packet-number order (filled in send order, see
        # on_packet_sent): walk it from the front and stop past the top
        # range, so the work tracks the packets still outstanding below
        # it, not the width of the ranges (every ACK re-covers the whole
        # receive history) nor the packets sent since.
        found: List[List[int]] = [[] for _ in ranges]
        if ranges:
            top = ranges[0][1]
            index = len(ranges) - 1
            low, high = ranges[index]
            for pn in sent:
                if pn > top:
                    break
                while pn > high:
                    index -= 1
                    low, high = ranges[index]
                if pn >= low:
                    found[index].append(pn)
        for hits in found:
            for pn in reversed(hits):  # descending within a range
                sp = sent.pop(pn)
                newly_acked.append(sp)
                if largest_sp is None or pn > largest_sp.packet_number:
                    largest_sp = sp
                if sp.ack_eliciting:
                    any_eliciting = True
                if sp.declared_lost:
                    # The "lost" packet was delivered after all: the
                    # retransmission we triggered was spurious.
                    self.spurious_retransmissions += 1
                elif sp.ack_eliciting and sp.in_flight:
                    state.ack_eliciting_in_flight_count -= 1
        rtt_sample: Optional[float] = None
        if largest_sp is not None:
            largest_newly = largest_sp.packet_number
            if state.largest_acked is None or largest_newly > state.largest_acked:
                state.largest_acked = largest_newly
                take_sample = largest_sp.ack_eliciting
                if space is Space.INITIAL and not self.config.use_initial_ack_rtt_sample:
                    take_sample = False
                if take_sample:
                    rtt_sample = now_ms - largest_sp.time_sent_ms
                    if rtt_sample > 0:
                        # Ack delay adjustment happens inside update();
                        # the Initial space ignores the field (RFC 9002
                        # §5.3 / paper Appendix D).
                        delay = 0.0 if space is Space.INITIAL else ack.ack_delay_ms
                        self.estimator.update(rtt_sample, ack_delay_ms=delay)
            if any_eliciting:
                # Reset backoff on forward progress (RFC 9002 §6.2.1;
                # clients keep backoff until address validation is
                # certain — simplified here as a plain reset).
                self.pto_count = 0
                if now_ms > self.last_pto_reset_ms:
                    self.last_pto_reset_ms = now_ms
        lost = self._detect_lost(space, now_ms)
        self.state_version += 1
        return AckResult(newly_acked, rtt_sample, lost)

    # ------------------------------------------------------------------
    # loss detection
    # ------------------------------------------------------------------

    def _loss_delay_ms(self) -> float:
        est = self.estimator
        if not est.has_sample:
            return self.config.default_pto_ms
        assert est.smoothed_rtt is not None and est.latest_rtt is not None
        return max(
            self.config.time_threshold * max(est.smoothed_rtt, est.latest_rtt),
            self.config.granularity_ms,
        )

    def _detect_lost(self, space: Space, now_ms: float) -> List[SentPacket]:
        """Packet- and time-threshold loss detection (RFC 9002 §6.1)."""
        state = self.spaces[space]
        state.loss_time_ms = None
        largest_acked = state.largest_acked
        if largest_acked is None:
            return []
        lost: List[SentPacket] = []
        loss_delay: Optional[float] = None
        detector = self.loss_detector
        for pn, sp in state.sent.items():  # in packet-number order
            if pn > largest_acked:
                break
            if sp.declared_lost:
                continue
            if loss_delay is None:
                loss_delay = self._loss_delay_ms()
            is_lost, candidate = detector.classify(
                packet_number=pn,
                time_sent_ms=sp.time_sent_ms,
                largest_acked=largest_acked,
                now_ms=now_ms,
                loss_delay_ms=loss_delay,
                packet_threshold=self.config.packet_threshold,
            )
            if is_lost:
                sp.declared_lost = True
                if sp.ack_eliciting and sp.in_flight:
                    state.ack_eliciting_in_flight_count -= 1
                sp.in_flight = False
                lost.append(sp)
            elif candidate is not None:
                if state.loss_time_ms is None or candidate < state.loss_time_ms:
                    state.loss_time_ms = candidate
        self.state_version += 1
        return lost

    def detect_lost_on_timer(self, now_ms: float) -> List[Tuple[Space, SentPacket]]:
        """Time-threshold loss triggered by the loss timer."""
        out: List[Tuple[Space, SentPacket]] = []
        for space, state in zip(_ALL_SPACES, self.spaces):
            if state.discarded or state.loss_time_ms is None:
                continue
            if state.loss_time_ms <= now_ms + 1e-9:
                for sp in self._detect_lost(space, now_ms):
                    out.append((space, sp))
        return out

    # ------------------------------------------------------------------
    # PTO computation (RFC 9002 A.8)
    # ------------------------------------------------------------------

    def set_handshake_complete(self) -> None:
        self._handshake_complete = True
        self.state_version += 1

    def pto_for_space(self, space: Space) -> float:
        """Backoff-free PTO applicable to one space.

        Memoized against the estimator version: the PTO is queried on
        every timer re-arm but only changes when a new RTT sample is
        accepted.
        """
        version, cached = self._pto_cache[space]
        if version == self.estimator.version:
            return cached
        value = self.estimator.pto_base_ms(
            default_pto_ms=self.config.default_pto_ms,
            granularity_ms=self.config.granularity_ms,
            include_max_ack_delay=(space is Space.APPLICATION),
            max_ack_delay_ms=self.config.max_ack_delay_ms,
        )
        self._pto_cache[space] = (self.estimator.version, value)
        return value

    def pto_time_and_space(
        self, now_ms: float
    ) -> Optional[Tuple[float, Space, bool]]:
        """When and in which space the next PTO fires, or ``None``.

        The third element flags a **time-dependent** deadline (the
        anti-deadlock branch clamps against ``now_ms``); such results
        must not be memoized by callers."""
        backoff = 2 ** self.pto_count
        handshake_complete = self._handshake_complete
        estimator_version = self.estimator.version
        best_when: Optional[float] = None
        best_space = Space.INITIAL
        for space, state in zip(_ALL_SPACES, self.spaces):
            if state.discarded or state.ack_eliciting_in_flight_count <= 0:
                continue
            if space is Space.APPLICATION and not handshake_complete:
                # Skip app space until the handshake is confirmed
                # (RFC 9002 A.8); Initial/Handshake govern first.
                continue
            assert state.time_of_last_ack_eliciting_ms is not None
            version, pto = self._pto_cache[space]
            if version != estimator_version:
                pto = self.pto_for_space(space)
            when = state.time_of_last_ack_eliciting_ms + pto * backoff
            if best_when is None or when < best_when:
                best_when = when
                best_space = space
        if best_when is not None:
            return (best_when, best_space, False)
        if self.is_client and not handshake_complete:
            # Anti-deadlock PTO (RFC 9002 §6.2.2.1): nothing in flight
            # but the handshake is incomplete — e.g. right after an
            # instant ACK removed the ClientHello from flight. This
            # branch depends on the query time (``max(when, now)``) and
            # must not be memoized by callers.
            space = (
                Space.HANDSHAKE
                if not self.spaces[Space.HANDSHAKE].discarded
                and self.spaces[Space.HANDSHAKE].next_packet_number > 0
                else Space.INITIAL
            )
            if self.spaces[space].discarded:
                return None
            if self.config.anti_deadlock_probe_from_sent_time:
                # mvfst/picoquic: the timer stays anchored at the last
                # ack-eliciting send using the *default* PTO — an
                # instant ACK does not provoke earlier probes.
                anchor = self._last_ack_eliciting_any()
                if anchor is None:
                    anchor = now_ms
                when = anchor + self.config.default_pto_ms * backoff
            else:
                # Anchor at the last PTO reset, NOT the query time —
                # otherwise every timer re-arm would push the deadline
                # forward and the probe would never fire.
                when = self.last_pto_reset_ms + self.pto_for_space(space) * backoff
            return (when if when > now_ms else now_ms, space, True)
        return None

    def _last_ack_eliciting_any(self) -> Optional[float]:
        times = [
            st.time_of_last_ack_eliciting_ms
            for st in self.spaces
            if st.time_of_last_ack_eliciting_ms is not None
        ]
        return max(times) if times else None

    def loss_detection_deadline(self, now_ms: float) -> Optional[Tuple[float, Space, str]]:
        """Next timer: ``(when, space, kind)`` with kind ``"loss"`` or
        ``"pto"``; ``None`` when no timer should be armed.

        Memoized against :attr:`_state_version`: timers re-arm far more
        often than the recovery state changes. The anti-deadlock PTO is
        the one ``now``-dependent branch and is never cached."""
        if self._deadline_version == self.state_version:
            return self._deadline
        result: Optional[Tuple[float, Space, str]] = None
        for space, state in zip(_ALL_SPACES, self.spaces):
            loss_time = state.loss_time_ms
            if loss_time is None or state.discarded:
                continue
            if result is None or loss_time < result[0]:
                result = (loss_time, space, "loss")
        if result is None:
            pto = self.pto_time_and_space(now_ms)
            if pto is not None:
                result = (pto[0], pto[1], "pto")
                if pto[2]:  # time-dependent deadlines are never cached
                    return result
        self._deadline = result
        self._deadline_version = self.state_version
        return result

    def on_pto_fired(self) -> None:
        self.pto_count += 1
        self.state_version += 1

    # ------------------------------------------------------------------
    # key / space lifecycle
    # ------------------------------------------------------------------

    def discard_space(self, space: Space, now_ms: Optional[float] = None) -> None:
        """Discard keys for a space (RFC 9002 §6.4): drop its state and
        reset the PTO backoff."""
        state = self.spaces[space]
        state.discarded = True
        state.sent.clear()
        state.loss_time_ms = None
        state.time_of_last_ack_eliciting_ms = None
        state.ack_eliciting_in_flight_count = 0
        self.pto_count = 0
        if now_ms is not None:
            self.last_pto_reset_ms = max(self.last_pto_reset_ms, now_ms)
        self.state_version += 1

    def bytes_in_flight(self) -> int:
        return sum(
            sp.size
            for st in self.spaces
            if not st.discarded
            for sp in st.sent.values()
            if sp.in_flight and not sp.declared_lost
        )
