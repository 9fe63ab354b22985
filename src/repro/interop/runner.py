"""The scenario runner: one emulated QUIC connection per run.

A :class:`Scenario` is the full parameterization of one testbed
condition (client implementation, server mode, HTTP version, RTT,
Δt, certificate, file size, loss patterns); :class:`Runner` executes
it for any number of repetitions with distinct seeds and collects
:class:`RunResult` artifacts (stats, qlogs, packet trace).
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Collection, List, Optional, Sequence, Tuple, Union

from repro.http import semantics_for
from repro.http.base import RequestSpec
from repro.impls.profile import ImplProfile
from repro.impls.registry import QUIC_GO_SERVER, client_profile
from repro.qlog.writer import QlogWriter
from repro.quic.certs import Certificate, SMALL_CERTIFICATE
from repro.quic.client import ClientConnection
from repro.quic.connection import ConnectionStats, recovery_config_for
from repro.quic.profiles import get_recovery_profile
from repro.quic.server import ServerConfig, ServerConnection, ServerMode
from repro.sim.draws import BehaviorDraws
from repro.sim.engine import EventLoop
from repro.sim.link import DEFAULT_BANDWIDTH_BPS
from repro.sim.loss import LossPattern
from repro.sim.network import Network
from repro.sim.trace import Tracer

#: 10 KB and 10 MB transfer sizes used throughout the paper (§3).
SIZE_10KB = 10 * 1024
SIZE_10MB = 10 * 1024 * 1024


@dataclass(frozen=True)
class Scenario:
    """One testbed condition."""

    client: str = "quic-go"
    mode: ServerMode = ServerMode.WFC
    http: str = "h1"
    rtt_ms: float = 9.0
    delta_t_ms: float = 0.0
    certificate: Certificate = field(default_factory=lambda: SMALL_CERTIFICATE)
    response_size: int = SIZE_10KB
    bandwidth_bps: Optional[float] = DEFAULT_BANDWIDTH_BPS
    client_to_server_loss: Optional[LossPattern] = None
    server_to_client_loss: Optional[LossPattern] = None
    pad_instant_ack: bool = False
    timeout_ms: float = 60_000.0
    #: Named recovery-lab strategy bundle (see
    #: :mod:`repro.quic.profiles`); carried as a string so the scenario
    #: stays hashable and cheap to pickle. ``"default"`` reproduces the
    #: pre-lab stack byte-identically.
    recovery_profile: str = "default"

    def __post_init__(self) -> None:
        # Declared ranges: refuse at construction (i.e. at planning)
        # what would otherwise surface as a traceback inside sim/link —
        # or, for NaN (which passes every ``x < 0``), as a run that
        # "completes" with a NaN clock.
        for name in ("rtt_ms", "delta_t_ms", "timeout_ms", "bandwidth_bps"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.rtt_ms < 0:
            raise ValueError(f"rtt_ms must be >= 0, got {self.rtt_ms!r}")
        if self.delta_t_ms < 0:
            raise ValueError(f"delta_t_ms must be >= 0, got {self.delta_t_ms!r}")
        if self.response_size < 0:
            raise ValueError(f"response_size must be >= 0, got {self.response_size!r}")
        if self.bandwidth_bps is not None and self.bandwidth_bps <= 0:
            raise ValueError(f"bandwidth_bps must be > 0, got {self.bandwidth_bps!r}")
        if self.timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be > 0, got {self.timeout_ms!r}")

    def with_mode(self, mode: ServerMode) -> "Scenario":
        return replace(self, mode=mode)

    def describe(self) -> str:
        loss = ""
        if self.client_to_server_loss or self.server_to_client_loss:
            loss = (
                f" loss(c2s={self.client_to_server_loss!r},"
                f" s2c={self.server_to_client_loss!r})"
            )
        profile = ""
        if self.recovery_profile != "default":
            profile = f" profile={self.recovery_profile}"
        return (
            f"{self.client}/{self.http} {self.mode.name} rtt={self.rtt_ms}ms "
            f"dt={self.delta_t_ms}ms cert={self.certificate.name} "
            f"size={self.response_size}B{loss}{profile}"
        )


@dataclass
class RunResult:
    """Artifacts of one emulated connection."""

    scenario: Scenario
    seed: int
    client_stats: ConnectionStats
    server_stats: ConnectionStats
    client_qlog: QlogWriter
    server_qlog: QlogWriter
    tracer: Tracer
    client: ClientConnection
    server: ServerConnection
    duration_ms: float

    @property
    def ttfb_ms(self) -> Optional[float]:
        return self.client_stats.ttfb_relative_ms

    @property
    def response_ttfb_ms(self) -> Optional[float]:
        """First payload byte on the request stream — the metric of
        the loss-scenario figures ("the first payload byte after the
        loss event", Appendix F)."""
        return self.client_stats.response_ttfb_relative_ms

    @property
    def completed(self) -> bool:
        return self.client_stats.completed

    @property
    def first_pto_ms(self) -> Optional[float]:
        return self.client_stats.first_pto_ms


def _fresh(pattern: Optional[LossPattern]) -> Optional[LossPattern]:
    """The loss pattern one run mutates: stateful patterns (RandomLoss,
    Gilbert-Elliott) are deep-copied and reset per run — shared through
    the Scenario they would couple repetitions and race under
    concurrent execution of the same scenario."""
    if pattern is None or pattern.stateless:
        return pattern
    pattern = copy.deepcopy(pattern)
    pattern.reset()
    return pattern


def _stop_when(
    loop: EventLoop, until: Sequence[Tuple[str, Callable[[Any], bool]]]
) -> Callable[[str, Any], None]:
    """The watch ``run_once`` installs for ``until``: called with each
    retained ``(source, item)``, it stops ``loop`` once every pair has
    been answered."""
    pending = list(until)

    def watch(source: str, item: Any) -> None:
        pending[:] = [
            (name, predicate)
            for name, predicate in pending
            if name != source or not predicate(item)
        ]
        if not pending:
            loop.stop()

    return watch


class _Scaffold:
    """What every repetition of one scenario shares: the resolved
    profiles and the immutable configuration derived from them.
    Nothing here is seeded or mutated by a run."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.profile = profile = client_profile(scenario.client)
        # Both endpoints run the scenario's recovery-lab profile: the
        # sweeps compare whole-path strategy changes, not asymmetric
        # deployments.
        self.recovery_profile = rprofile = get_recovery_profile(scenario.recovery_profile)
        self.http = semantics_for(scenario.http)
        self.request = RequestSpec(response_size=scenario.response_size)
        self.client_exposure = profile.exposure_policy()
        self.server_exposure = QUIC_GO_SERVER.exposure_policy()
        self.client_recovery = recovery_config_for(profile, rprofile)
        self.server_recovery = recovery_config_for(QUIC_GO_SERVER, rprofile)
        self.server_config = ServerConfig(
            mode=scenario.mode,
            delta_t_ms=scenario.delta_t_ms,
            certificate=scenario.certificate,
            pad_instant_ack=scenario.pad_instant_ack,
        )


class Runner:
    """Executes scenarios on the discrete-event simulator."""

    def __init__(self, base_seed: int = 0):
        self.base_seed = base_seed
        #: Scaffold of the scenario run last: repetitions of one
        #: scenario arrive back to back.
        self._scaffold: Optional[_Scaffold] = None

    def run_once(
        self,
        scenario: Scenario,
        seed: Optional[int] = None,
        *,
        capture_trace: Union[bool, Collection[str]] = True,
        record_qlog: Union[bool, Collection[str]] = True,
        until: Sequence[Tuple[str, Callable[[Any], bool]]] = (),
    ) -> RunResult:
        """Run a single connection and return its artifacts.

        ``capture_trace`` / ``record_qlog`` select how much the run
        retains: ``True`` / ``False`` for both links / both endpoints,
        or the names of the links (``"client->server"``,
        ``"server->client"``) and of the endpoints (``"client"``,
        ``"server"``) to keep. With both off, only
        :class:`ConnectionStats` survive — connection behavior (and
        therefore the stats) is bit-identical whatever is retained,
        since the qlog writers keep consuming their exposure-policy rng
        draws without storing events. What was not retained raises when
        read (:class:`~repro.sim.trace.Tracer`,
        :attr:`QlogWriter.events <repro.qlog.writer.QlogWriter.events>`).

        ``until`` ends the run early: ``(source, predicate)`` pairs,
        ``source`` an endpoint or link name as above. Once each
        predicate has held for an event or record its source retained
        (one that is not retained never answers), the loop stops after
        the callback at hand; everything retained and the stats are
        then a prefix of the whole run's, and ``duration_ms`` is the
        halt time.
        """
        seed = self.base_seed if seed is None else seed
        scaffold = self._scaffold
        if scaffold is None or scaffold.scenario is not scenario:
            scaffold = self._scaffold = _Scaffold(scenario)
        if record_qlog is True or record_qlog is False:
            record_client = record_server = record_qlog
        else:
            record_client, record_server = "client" in record_qlog, "server" in record_qlog
        loop = EventLoop()
        tracer = Tracer(capture=capture_trace)
        network = Network.for_rtt(
            loop,
            rtt_ms=scenario.rtt_ms,
            bandwidth_bps=scenario.bandwidth_bps,
            client_to_server_loss=_fresh(scenario.client_to_server_loss),
            server_to_client_loss=_fresh(scenario.server_to_client_loss),
            tracer=tracer,
        )
        # String seeds are hashed (SHA-512) by random.Random, giving
        # well-mixed first draws even for sequential repetition seeds.
        # The shared per-role rng feeds only the qlog exposure draws;
        # behavior draws come from purpose-derived streams so their
        # values are pure functions of (role, seed, purpose).
        rng_client = random.Random(f"client:{seed}")
        rng_server = random.Random(f"server:{seed}")
        client = ClientConnection(
            loop,
            scaffold.profile,
            scaffold.http,
            request=scaffold.request,
            rng=rng_client,
            qlog=QlogWriter(
                "client", scaffold.client_exposure, rng_client, record_events=record_client
            ),
            name="client",
            draws=BehaviorDraws("client", seed),
            recovery_profile=scaffold.recovery_profile,
            recovery_config=scaffold.client_recovery,
        )
        server = ServerConnection(
            loop,
            QUIC_GO_SERVER,
            scaffold.http,
            config=scaffold.server_config,
            rng=rng_server,
            qlog=QlogWriter(
                "server", scaffold.server_exposure, rng_server, record_events=record_server
            ),
            name="server",
            draws=BehaviorDraws("server", seed),
            recovery_profile=scaffold.recovery_profile,
            recovery_config=scaffold.server_recovery,
        )
        server.set_request_spec(scaffold.request)
        network.client.attach(client.on_datagram)
        network.server.attach(server.on_datagram)
        client.attach_transport(network.transport_from(network.client))
        server.attach_transport(network.transport_from(network.server))
        if until:
            watch = _stop_when(loop, until)
            owners = {"client": client.qlog, "server": server.qlog}
            for source, _ in until:
                owners.get(source, tracer).watch = watch
        client.start()
        if not loop.stopped:  # what start() sent may answer a watch
            loop.run(until=scenario.timeout_ms)
        if not (loop.stopped or client.stats.completed) and client.stats.aborted is None:
            client.stats.aborted = "timeout"
        return RunResult(
            scenario=scenario,
            seed=seed,
            client_stats=client.snapshot_stats(),
            server_stats=server.snapshot_stats(),
            client_qlog=client.qlog,
            server_qlog=server.qlog,
            tracer=tracer,
            client=client,
            server=server,
            duration_ms=loop.now,
        )

    def run_repetitions(
        self, scenario: Scenario, repetitions: int = 100
    ) -> List[RunResult]:
        """Run a scenario ``repetitions`` times with distinct seeds —
        the paper repeats every test 100 times (§3)."""
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        return [
            self.run_once(scenario, seed=self.base_seed + i)
            for i in range(repetitions)
        ]


def profile_for(scenario: Scenario) -> ImplProfile:
    """The client profile a scenario resolves to."""
    return client_profile(scenario.client)
