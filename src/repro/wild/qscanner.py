"""QScanner-style prober.

"We perform QUIC handshakes and HTTP/3 HEAD requests using QScanner
[30] ... We then map the contacted IP addresses to ASes and on-net CDN
deployments" (§3). "We check for instant ACK behavior, i.e., whether
the ClientHello is followed by a separate (server) ACK preceding the
TLS ServerHello" (§4.3).

The prober has three engines:

* the default **analytic engine**, which samples each handshake from
  the fitted CDN deployment models with one dedicated rng per domain
  (the reference implementation);
* the **batch engine** (:meth:`QScanner.probe_batch`), which samples
  the identical per-domain distributions from a single per-pass rng
  stream instead of seeding one rng per domain. It is faster and
  statistically equivalent (cross-validated in the test suite), but
  draws different concrete samples than the analytic engine. A pass is
  deterministic in ``(seed, vantage, day, domain order)`` and must run
  whole inside one parallel task; and
* the **emulation engine** (``use_emulation=True``), which runs a full
  :mod:`repro.quic` handshake per domain on the discrete-event
  simulator — used on samples to cross-validate the analytic engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.interop.runner import Runner, Scenario
from repro.quic.server import ServerMode
from repro.wild.asdb import AsDatabase, Cdn
from repro.wild.cdn import CdnDeployment, deployment_for
from repro.wild.tranco import TrancoDomain
from repro.wild.vantage import VantagePoint


@dataclass(frozen=True, slots=True)
class ProbeResult:
    """One probed domain, as the paper's dissector would record it."""

    domain: str
    rank: int
    address: str
    cdn: Cdn
    vantage: str
    day: int
    rtt_ms: float
    #: Separate ACK preceding the ServerHello observed?
    iack_observed: bool
    #: ACK and ServerHello coalesced in one datagram?
    coalesced: bool
    #: Delay between the first ACK and the ServerHello [ms]; 0.0 for
    #: coalesced ACK–SH (Figure 8 plots coalesced as 0 delay).
    ack_to_sh_delay_ms: float
    #: The acknowledgment-delay field of the first ACK [ms] (Fig. 10).
    ack_delay_field_ms: float

    @property
    def ack_delay_minus_rtt_ms(self) -> float:
        """Figure 10's x-axis: RTT minus ack delay, negated here as
        (ack_delay - rtt) for directness."""
        return self.ack_delay_field_ms - self.rtt_ms


class QScanner:
    """Probes toplist domains from a vantage point."""

    def __init__(
        self,
        vantage: VantagePoint,
        seed: int = 0,
        use_emulation: bool = False,
    ):
        self.vantage = vantage
        self.seed = seed
        self.use_emulation = use_emulation
        self.asdb = AsDatabase()
        self._bias_memo: Dict[Tuple[int, Cdn], float] = {}

    def probe(
        self,
        domains: Iterable[TrancoDomain],
        day: int = 0,
    ) -> List[ProbeResult]:
        """Probe every QUIC-answering domain once."""
        results: List[ProbeResult] = []
        for domain in domains:
            if not domain.answers_quic:
                continue
            result = self.probe_one(domain, day=day)
            if result is not None:
                results.append(result)
        return results

    def probe_one(self, domain: TrancoDomain, day: int = 0) -> Optional[ProbeResult]:
        if domain.cdn is None or domain.address is None:
            return None
        deployment = deployment_for(domain.cdn)
        rng = random.Random(
            f"probe:{self.seed}:{self.vantage.name}:{day}:{domain.name}"
        )
        if self.use_emulation:
            return self._probe_emulated(domain, deployment, rng, day)
        return self._probe_analytic(domain, deployment, rng, day)

    # ------------------------------------------------------------------
    # batch engine
    # ------------------------------------------------------------------

    def probe_batch(
        self,
        domains: Iterable[TrancoDomain],
        day: int = 0,
    ) -> List[ProbeResult]:
        """Probe a full pass with the batch engine.

        Semantics match :meth:`probe` (same per-domain distributions,
        same vantage/day share bias); the sampling draws come from one
        per-pass stream, making the pass both deterministic and cheap —
        no per-domain ``random.Random`` construction. The share bias is
        the exact per-(vantage, day, CDN) value the analytic engine
        derives, computed once per pass.
        """
        if self.use_emulation:
            raise ValueError(
                "probe_batch samples the analytic model; a scanner built "
                "with use_emulation=True must use probe() so the "
                "emulation engine actually runs"
            )
        rng = random.Random(f"probe-batch:{self.seed}:{self.vantage.name}:{day}")
        results: List[ProbeResult] = []
        for domain in domains:
            if not domain.answers_quic:
                continue
            if domain.cdn is None or domain.address is None:
                continue
            results.append(
                self._sample_probe(
                    domain,
                    deployment_for(domain.cdn),
                    rng,
                    day,
                    self._share_bias(day, domain.cdn),
                )
            )
        return results

    def _share_bias(self, day: int, cdn: Cdn) -> float:
        """Vantage/day bias on a CDN's observed deployment share —
        Amazon varies by up to 18 % across vantage points (Table 1).
        The paper reports the *maximum* share across measurements, so
        the bias only lowers the share from its tabled value.

        A pure function of ``(vantage, day, cdn)``, memoised because
        seeding a ``random.Random`` from a string costs more than the
        rest of an analytic probe.
        """
        key = (day, cdn)
        bias = self._bias_memo.get(key)
        if bias is None:
            bias = random.Random(
                f"bias:{self.vantage.name}:{day}:{cdn.value}"
            ).uniform(-1.0, 0.0)
            self._bias_memo[key] = bias
        return bias

    def _sample_probe(
        self,
        domain: TrancoDomain,
        deployment: CdnDeployment,
        rng: random.Random,
        day: int,
        bias: float,
    ) -> ProbeResult:
        """One analytic-model probe with the bias precomputed and the
        rng supplied by the caller (shared by both sampling engines)."""
        rtt = self.vantage.sample_rtt_ms(domain.cdn, rng)
        iack_enabled = deployment.sample_iack_enabled(rng, bias=bias)
        cached = deployment.sample_cert_cached(rng, popularity=domain.popularity)
        backend_delay = deployment.sample_backend_delay_ms(rng)
        if not iack_enabled:
            # WFC server: single coalesced ACK–ServerHello after the
            # backend fetch (or cache hit).
            coalesced = True
            iack_observed = False
            delay = 0.0
        elif cached:
            # Certificate already on the frontend: ACK and SH coalesce
            # even with IACK enabled ("a strong indicator for
            # caching", §4.3).
            coalesced = True
            iack_observed = False
            delay = 0.0
        else:
            coalesced = False
            iack_observed = True
            delay = backend_delay
        ack_delay_field = deployment.sample_ack_delay_field_ms(
            rng, rtt, coalesced=coalesced
        )
        return ProbeResult(
            domain=domain.name,
            rank=domain.rank,
            address=domain.address,
            cdn=self.asdb.cdn_for_address(domain.address),
            vantage=self.vantage.name,
            day=day,
            rtt_ms=rtt,
            iack_observed=iack_observed,
            coalesced=coalesced,
            ack_to_sh_delay_ms=delay,
            ack_delay_field_ms=ack_delay_field,
        )

    # ------------------------------------------------------------------
    # analytic engine
    # ------------------------------------------------------------------

    def _probe_analytic(
        self,
        domain: TrancoDomain,
        deployment: CdnDeployment,
        rng: random.Random,
        day: int,
    ) -> ProbeResult:
        return self._sample_probe(
            domain, deployment, rng, day, self._share_bias(day, domain.cdn)
        )

    # ------------------------------------------------------------------
    # emulation engine (cross-validation on samples)
    # ------------------------------------------------------------------

    def _probe_emulated(
        self,
        domain: TrancoDomain,
        deployment: CdnDeployment,
        rng: random.Random,
        day: int,
    ) -> ProbeResult:
        rtt = self.vantage.sample_rtt_ms(domain.cdn, rng)
        iack_enabled = deployment.sample_iack_enabled(
            rng, bias=self._share_bias(day, domain.cdn)
        )
        cached = deployment.sample_cert_cached(rng, popularity=domain.popularity)
        backend_delay = 0.0 if cached else deployment.sample_backend_delay_ms(rng)
        scenario = Scenario(
            client="quic-go",
            mode=ServerMode.IACK if iack_enabled else ServerMode.WFC,
            http="h3",
            rtt_ms=rtt,
            delta_t_ms=backend_delay,
        )
        run = Runner(base_seed=rng.randrange(1 << 30)).run_once(scenario)
        stats = run.client_stats
        first_ack = stats.relative(stats.first_ack_received_ms)
        sh = stats.relative(stats.server_hello_received_ms)
        coalesced = bool(stats.first_ack_coalesced_with_sh)
        iack_observed = not coalesced and first_ack is not None and sh is not None
        delay = 0.0
        if iack_observed and first_ack is not None and sh is not None:
            delay = max(0.0, sh - first_ack)
        ack_delay_field = deployment.sample_ack_delay_field_ms(
            rng, rtt, coalesced=coalesced
        )
        return ProbeResult(
            domain=domain.name,
            rank=domain.rank,
            address=domain.address,
            cdn=self.asdb.cdn_for_address(domain.address),
            vantage=self.vantage.name,
            day=day,
            rtt_ms=rtt,
            iack_observed=iack_observed,
            coalesced=coalesced,
            ack_to_sh_delay_ms=delay,
            ack_delay_field_ms=ack_delay_field,
        )


def scan_with_engine(
    scanner: "QScanner",
    domains: Iterable[TrancoDomain],
    day: int = 0,
    engine: str = "analytic",
) -> List[ProbeResult]:
    """Dispatch a scan pass to the named engine, rejecting unknown
    names (a typo must not silently fall back to the analytic engine)."""
    if engine == "batch":
        return scanner.probe_batch(domains, day=day)
    if engine == "analytic":
        return scanner.probe(domains, day=day)
    raise ValueError(f"unknown scan engine {engine!r}")


def deployment_share(results: Iterable[ProbeResult]) -> Dict[Cdn, float]:
    """Share of domains per CDN with instant ACK observed (Table 1).

    A domain counts as IACK-deployed when any of its probes observed a
    separate ACK preceding the ServerHello.
    """
    per_domain: Dict[str, tuple] = {}
    for result in results:
        prior = per_domain.get(result.domain)
        observed = result.iack_observed or (prior[1] if prior else False)
        per_domain[result.domain] = (result.cdn, observed)
    counts: Dict[Cdn, List[int]] = {}
    for cdn, observed in per_domain.values():
        bucket = counts.setdefault(cdn, [0, 0])
        bucket[0] += 1
        bucket[1] += 1 if observed else 0
    return {
        cdn: (bucket[1] / bucket[0] if bucket[0] else 0.0)
        for cdn, bucket in counts.items()
    }
