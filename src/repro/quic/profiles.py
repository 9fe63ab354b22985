"""Named recovery profiles: the congestion-control / recovery lab.

A :class:`RecoveryProfile` composes the three strategy axes the
endpoint machinery exposes —

* congestion control (:data:`~repro.quic.cc.CC_CONTROLLERS`),
* loss detection (:data:`~repro.quic.recovery.LOSS_DETECTORS`),
* acknowledgment policy (:class:`AckPolicy` and friends)

— into one frozen, hashable value carried by name. Scenarios reference
profiles as plain strings (``Scenario(recovery_profile="cubic")``), so
scenario fingerprints, suite dedup, and the disk cache key on the
profile without pickling strategy objects; the
:class:`~repro.interop.runner.Runner` resolves the name through
:func:`get_recovery_profile` at execution time.

The ``"default"`` profile is special: it reproduces the pre-lab
behavior byte-identically (NewReno, RFC 9002 packet+time loss
detection, the :class:`~repro.impls.profile.ImplProfile`-driven
delayed-ack cadence) and keys exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.quic.cc import CC_CONTROLLERS
from repro.quic.recovery import LOSS_DETECTORS

if TYPE_CHECKING:  # pragma: no cover
    from repro.impls.profile import ImplProfile

#: Name the default profile is registered under; scenarios carry it as
#: their ``recovery_profile`` default and cache keys omit it.
DEFAULT_PROFILE_NAME = "default"


class AckPolicy:
    """Strategy for the application-space acknowledgment cadence.

    The default defers entirely to the client/server
    :class:`~repro.impls.profile.ImplProfile` (each stack's measured
    ``ack_every_n`` / ``max_ack_delay_ms``), which keeps the paper
    bundles byte-identical; the variants below override the cadence for
    the recovery-lab sweeps.
    """

    name = "default"

    def ack_every_n(self, profile: "ImplProfile") -> int:
        return profile.ack_every_n

    def max_ack_delay_ms(self, profile: "ImplProfile") -> float:
        return profile.max_ack_delay_ms


class ImmediateAckPolicy(AckPolicy):
    """Acknowledge every ack-eliciting packet immediately."""

    name = "immediate"

    def ack_every_n(self, profile: "ImplProfile") -> int:
        return 1

    def max_ack_delay_ms(self, profile: "ImplProfile") -> float:
        return 0.0


class DelayedAckPolicy(AckPolicy):
    """ACK-frequency style policy: acknowledge every ``every_n``
    eliciting packets, with an explicit delay cap."""

    name = "delayed"

    def __init__(self, every_n: int = 10, max_delay_ms: float = 25.0):
        if every_n < 1:
            raise ValueError("ack frequency must be >= 1")
        if max_delay_ms < 0:
            raise ValueError("max ack delay must be >= 0")
        self.every_n = every_n
        self.max_delay_ms = max_delay_ms

    def ack_every_n(self, profile: "ImplProfile") -> int:
        return self.every_n

    def max_ack_delay_ms(self, profile: "ImplProfile") -> float:
        return self.max_delay_ms


_ACK_POLICIES = (AckPolicy.name, ImmediateAckPolicy.name, DelayedAckPolicy.name)


@dataclass(frozen=True)
class RecoveryProfile:
    """One named point in the CC × loss-detection × ack-policy space."""

    name: str
    #: Congestion-controller strategy (:data:`~repro.quic.cc.CC_CONTROLLERS`).
    cc: str = "newreno"
    #: Loss-detection strategy (:data:`~repro.quic.recovery.LOSS_DETECTORS`).
    loss_detector: str = "rfc9002"
    #: Ack-policy strategy (``default`` / ``immediate`` / ``delayed``).
    ack_policy: str = "default"
    #: ``delayed`` policy knobs; ``None`` means the policy's defaults.
    ack_every_n: Optional[int] = None
    ack_max_delay_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cc not in CC_CONTROLLERS:
            raise ValueError(
                f"profile {self.name!r}: unknown congestion controller "
                f"{self.cc!r}; known: {sorted(CC_CONTROLLERS)}"
            )
        if self.loss_detector not in LOSS_DETECTORS:
            raise ValueError(
                f"profile {self.name!r}: unknown loss detector "
                f"{self.loss_detector!r}; known: {sorted(LOSS_DETECTORS)}"
            )
        if self.ack_policy not in _ACK_POLICIES:
            raise ValueError(
                f"profile {self.name!r}: unknown ack policy "
                f"{self.ack_policy!r}; known: {sorted(_ACK_POLICIES)}"
            )

    @property
    def is_default(self) -> bool:
        """Whether this profile reproduces the pre-lab behavior (and
        therefore keeps historical cache keys)."""
        return (
            self.cc == "newreno"
            and self.loss_detector == "rfc9002"
            and self.ack_policy == "default"
        )

    def make_ack_policy(self) -> AckPolicy:
        if self.ack_policy == ImmediateAckPolicy.name:
            return ImmediateAckPolicy()
        if self.ack_policy == DelayedAckPolicy.name:
            return DelayedAckPolicy(
                every_n=self.ack_every_n if self.ack_every_n is not None else 10,
                max_delay_ms=(
                    self.ack_max_delay_ms
                    if self.ack_max_delay_ms is not None
                    else 25.0
                ),
            )
        return AckPolicy()

    def describe(self) -> str:
        return (
            f"{self.name} (cc={self.cc}, loss={self.loss_detector}, "
            f"ack={self.ack_policy})"
        )


#: Profile registry: name → profile. The vocabulary is documented in
#: the "Recovery profiles" section of API.md.
RECOVERY_PROFILES: Dict[str, RecoveryProfile] = {}


def register_profile(profile: RecoveryProfile) -> RecoveryProfile:
    if profile.name in RECOVERY_PROFILES:
        raise ValueError(f"duplicate recovery profile {profile.name!r}")
    RECOVERY_PROFILES[profile.name] = profile
    return profile


def get_recovery_profile(name: str) -> RecoveryProfile:
    """Resolve a profile by name; raises with the known vocabulary."""
    try:
        return RECOVERY_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown recovery profile {name!r}; "
            f"known: {sorted(RECOVERY_PROFILES)}"
        ) from None


def profile_names() -> Tuple[str, ...]:
    """Registered profile names, default first, then alphabetical."""
    rest = sorted(n for n in RECOVERY_PROFILES if n != DEFAULT_PROFILE_NAME)
    return (DEFAULT_PROFILE_NAME, *rest)


DEFAULT_PROFILE = register_profile(RecoveryProfile(name=DEFAULT_PROFILE_NAME))
register_profile(RecoveryProfile(name="cubic", cc="cubic"))
register_profile(RecoveryProfile(name="packet-only", loss_detector="packet"))
register_profile(RecoveryProfile(name="time-only", loss_detector="time"))
register_profile(RecoveryProfile(name="immediate-ack", ack_policy="immediate"))
register_profile(
    RecoveryProfile(
        name="cubic-delayed-ack", cc="cubic", ack_policy="delayed", ack_every_n=10
    )
)
