"""QScanner-style prober.

"We perform QUIC handshakes and HTTP/3 HEAD requests using QScanner
[30] ... We then map the contacted IP addresses to ASes and on-net CDN
deployments" (§3). "We check for instant ACK behavior, i.e., whether
the ClientHello is followed by a separate (server) ACK preceding the
TLS ServerHello" (§4.3).

The prober has two engines:

* the default **analytic engine**, which samples each handshake from
  the fitted CDN deployment models with one rng stream per domain,
  seeded from ``(seed, vantage, day, domain)`` (the reference
  implementation);
* the **batch engine** (:meth:`QScanner.probe_batch`), which samples
  the identical per-domain distributions from a single per-pass rng
  stream instead of seeding one rng per domain. It is faster and
  statistically equivalent (cross-validated in the test suite), but
  draws different concrete samples than the analytic engine. A pass is
  deterministic in ``(seed, vantage, day, domain order)`` and must run
  whole inside one parallel task.

The test suite cross-validates the analytic model against full
:mod:`repro.quic` handshakes on the discrete-event simulator.
"""

from __future__ import annotations

import random
from _random import Random as _MersenneTwister
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple

from repro.wild.asdb import AsDatabase, Cdn
from repro.wild.cdn import CdnDeployment, deployment_for
from repro.wild.tranco import TrancoDomain
from repro.wild.vantage import VantagePoint

try:  # the builtin SHA-512 that random.py uses, ~2x faster than OpenSSL's on a key
    from _sha2 import sha512  # Python 3.12+
except ImportError:
    try:
        from _sha512 import sha512
    except ImportError:
        from hashlib import sha512

#: The MT19937 seeding that ``random.Random.seed`` ends in.
_seed_mt = _MersenneTwister.seed


def reseed(rng: random.Random, key: str) -> None:
    """Put ``rng`` in exactly the state ``random.Random(key)`` starts in.

    This is ``Random.seed``'s version-2 derivation for a string — the
    key's UTF-8 bytes followed by their SHA-512 digest, read as one
    big-endian integer — handed straight to the MT19937 seeding, plus
    the reset of the cached second ``gauss`` value.
    """
    data = key.encode()
    _seed_mt(rng, int.from_bytes(data + sha512(data).digest(), "big"))
    rng.gauss_next = None


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


#: One probe as the analytic model draws it: ``(domain, cdn, rtt_ms,
#: iack_observed, coalesced, ack_to_sh_delay_ms, ack_delay_field_ms)``
#: — the probed target and :class:`ProbeResult`'s measured fields,
#: ``cdn`` inferred from the probed address.
ProbeValues = Tuple[TrancoDomain, Cdn, float, bool, bool, float, float]


class PassModel(NamedTuple):
    """One CDN's sampling constants for one (vantage, day) pass."""

    deployment: CdnDeployment
    #: The tabled IACK share under the pass's bias, clamped to [0, 1].
    iack_share: float
    rtt_mu: float
    rtt_sigma: float
    backend_mu: float
    backend_sigma: float


class QScanner:
    """Probes toplist domains from a vantage point.

    A scanner holds one ``random.Random``. The analytic engine reseeds
    it in place for every probe from ``(seed, vantage, day, domain)``,
    which leaves it exactly as ``random.Random(key)`` would start, so a
    probe's draws do not depend on what was probed before it; the batch
    engine reseeds it once per pass.
    """

    def __init__(self, vantage: VantagePoint, seed: int = 0):
        self.vantage = vantage
        self.seed = seed
        self.asdb = AsDatabase()
        self._rng = random.Random(0)
        #: day → CDN value → the pass's :class:`PassModel`.
        self._models: Dict[int, Dict[str, PassModel]] = {}

    def probe(
        self,
        domains: Iterable[TrancoDomain],
        day: int = 0,
    ) -> List[ProbeResult]:
        """Probe every QUIC-answering domain once."""
        return self._results(domains, day, batch=False)

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
        one seeding per pass instead of one per domain.
        """
        return self._results(domains, day, batch=True)

    # ------------------------------------------------------------------
    # the analytic model, shared by the analytic and batch engines
    # ------------------------------------------------------------------

    def _pass_models(self, day: int) -> Dict[str, PassModel]:
        """Every CDN's :class:`PassModel` for this vantage on ``day``,
        keyed by the CDN's value and built once per day."""
        models = self._models.get(day)
        if models is None:
            models = self._models[day] = {
                cdn.value: self._pass_model(day, cdn) for cdn in Cdn
            }
        return models

    def _pass_model(self, day: int, cdn: Cdn) -> PassModel:
        deployment = deployment_for(cdn)
        rtt_mu, rtt_sigma = self.vantage.rtt_lognormal(cdn)
        return PassModel(
            deployment=deployment,
            iack_share=deployment.biased_share(self._share_bias(day, cdn)),
            rtt_mu=rtt_mu,
            rtt_sigma=rtt_sigma,
            backend_mu=deployment.backend_delay_mu(),
            backend_sigma=deployment.backend_delay_sigma,
        )

    def _share_bias(self, day: int, cdn: Cdn) -> float:
        """Vantage/day bias on a CDN's observed deployment share —
        Amazon varies by up to 18 % across vantage points (Table 1).
        The paper reports the *maximum* share across measurements, so
        the bias only lowers the share from its tabled value.

        A pure function of ``(vantage, day, cdn)``, derived once per
        pass by :meth:`_pass_models`.
        """
        rng = self._rng
        reseed(rng, f"bias:{self.vantage.name}:{day}:{cdn.value}")
        return rng.uniform(-1.0, 0.0)

    def _results(
        self, domains: Iterable[TrancoDomain], day: int, batch: bool
    ) -> List[ProbeResult]:
        name = self.vantage.name
        return [
            ProbeResult(
                domain.name, domain.rank, domain.address, cdn, name, day,
                rtt, iack_observed, coalesced, delay, ack_delay_field,
            )
            for domain, cdn, rtt, iack_observed, coalesced, delay, ack_delay_field
            in self.sample(domains, day, batch)
        ]

    def sample(
        self, domains: Iterable[TrancoDomain], day: int, batch: bool = False
    ) -> Iterator[ProbeValues]:
        """Probe one pass with the analytic model: the
        :data:`ProbeValues` of every domain with a CDN and an address.

        The analytic engine (``batch=False``) reseeds the scanner's rng
        from ``(seed, vantage, day, domain)`` before each probe; the
        batch engine seeds it once from ``(seed, vantage, day)``. Each
        probe makes the same draws in the same order either way. The
        stream is the scanner's, so consume one pass before starting the
        next.
        """
        models = self._pass_models(day)
        rng = self._rng
        random_ = rng.random
        lognormvariate = rng.lognormvariate
        cdn_for_address = self.asdb.cdn_for_address
        if batch:
            reseed(rng, f"probe-batch:{self.seed}:{self.vantage.name}:{day}")
        prefix = f"probe:{self.seed}:{self.vantage.name}:{day}:"
        for domain in domains:
            cdn = domain.cdn
            address = domain.address
            if cdn is None or address is None:
                continue
            if not batch:
                reseed(rng, prefix + domain.name)
            # ``_value_`` is the member's plain attribute: no descriptor
            # call and no Enum hashing per probe.
            deployment, share, rtt_mu, rtt_sigma, backend_mu, backend_sigma = models[cdn._value_]
            rtt = max(0.3, lognormvariate(rtt_mu, rtt_sigma))
            iack_enabled = random_() < share
            cached = deployment.sample_cert_cached(rng, domain.popularity)
            backend_delay = lognormvariate(backend_mu, backend_sigma)
            if iack_enabled and not cached:
                coalesced = False
                delay = backend_delay
            else:
                # A WFC server sends one coalesced ACK–ServerHello after
                # the backend fetch (or cache hit); with the certificate
                # already on the frontend, ACK and SH coalesce even with
                # IACK enabled ("a strong indicator for caching", §4.3).
                coalesced = True
                delay = 0.0
            ack_delay_field = deployment.sample_ack_delay_field_ms(
                rng, rtt, coalesced=coalesced
            )
            yield (
                domain, cdn_for_address(address), rtt, not coalesced, coalesced, delay,
                ack_delay_field,
            )


def scan_batch(engine: str) -> bool:
    """Whether the named scan engine is the batch one, rejecting unknown
    names (a typo must not silently fall back to the analytic engine)."""
    if engine not in ("analytic", "batch"):
        raise ValueError(f"unknown scan engine {engine!r}")
    return engine == "batch"


def scan_with_engine(
    scanner: "QScanner",
    domains: Iterable[TrancoDomain],
    day: int = 0,
    engine: str = "analytic",
) -> List[ProbeResult]:
    """Dispatch a scan pass to the named engine."""
    if scan_batch(engine):
        return scanner.probe_batch(domains, day=day)
    return scanner.probe(domains, day=day)


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
