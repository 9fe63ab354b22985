"""Per-CDN deployment models fitted to the paper's aggregates.

Each :class:`CdnDeployment` captures what the macroscopic measurements
observed of one CDN:

* the share of its domains with instant ACK enabled (Table 1) and the
  day/vantage variation of that share;
* the backend (frontend ↔ certificate store) delay distribution,
  which sets the ACK→ServerHello gap (Figure 8: medians 3.2 ms
  Cloudflare, 6.4 ms Amazon, 20.9 ms Akamai, 30.3 ms Google);
* the probability that the certificate is already cached on the
  frontend, which yields a *coalesced* ACK–ServerHello instead;
* the acknowledgment-delay field behavior (Figure 10 / Appendix D):
  most CDNs send coalesced ACK–SH whose ack_delay exceeds the RTT,
  while IACK ack delays are below the RTT for Akamai (61 %) and
  Others (79.1 %).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict

from repro.wild.asdb import Cdn


@dataclass(frozen=True)
class CdnDeployment:
    """Generative parameters of one CDN's QUIC frontend fleet."""

    cdn: Cdn
    #: Number of its Tranco Top-1M domains answering QUIC (Table 1).
    domains: int
    #: Share of domains with instant ACK enabled (Table 1).
    iack_share: float
    #: Maximum share variation across vantage points/days (Table 1).
    share_variation: float
    #: Median backend delay between the (instant) ACK and the
    #: ServerHello [ms] (Figure 8).
    backend_delay_median_ms: float
    #: Log-normal sigma of the backend delay.
    backend_delay_sigma: float = 0.8
    #: Probability the certificate is cached at the frontend, in which
    #: case ACK and ServerHello are coalesced into one datagram.
    cert_cached_probability: float = 0.3
    #: Probability that a *coalesced* ACK–SH carries an ack_delay
    #: exceeding the path RTT (Figure 10a).
    coalesced_ack_delay_exceeds_rtt: float = 0.9
    #: Probability that an *instant* ACK carries an ack_delay below the
    #: path RTT (Figure 10b) — allowing correct RTT adjustment.
    iack_ack_delay_below_rtt: float = 0.3

    def biased_share(self, bias: float = 0.0) -> float:
        """The share of domains with instant ACK enabled on one day,
        from one vantage: ``bias`` in [-1, 1] shifts the tabled share by
        up to the deployment's variation (vantage/day effects)."""
        share = self.iack_share + bias * self.share_variation
        return min(1.0, max(0.0, share))

    def backend_delay_mu(self, diurnal: float = 0.0) -> float:
        """``mu`` of the backend-delay lognormal; ``diurnal`` in [0, 1]
        scales the median up by up to 50 % (daytime load, Figure
        9/Appendix G)."""
        median = self.backend_delay_median_ms * (1.0 + 0.5 * diurnal)
        return math.log(max(median, 1e-3))

    def sample_backend_delay_ms(self, rng: random.Random, diurnal: float = 0.0) -> float:
        """Backend delay sample (see :meth:`backend_delay_mu`)."""
        return rng.lognormvariate(self.backend_delay_mu(diurnal), self.backend_delay_sigma)

    def sample_cert_cached(self, rng: random.Random, popularity: float = 0.0) -> bool:
        """Certificate cache hit; only very popular domains see warm
        frontends during a cold scan ("a strong indicator for
        caching", §4.3) — hence the cubic popularity term."""
        p = min(1.0, self.cert_cached_probability + 0.6 * popularity**3)
        return rng.random() < p

    def sample_ack_delay_field_ms(
        self, rng: random.Random, rtt_ms: float, coalesced: bool
    ) -> float:
        """The ACK frame's acknowledgment-delay field (Figure 10)."""
        if coalesced:
            if rng.random() < self.coalesced_ack_delay_exceeds_rtt:
                return rtt_ms + rng.uniform(0.1, 0.9)  # "difference ... < 1 ms"
            return max(0.0, rtt_ms - rng.uniform(0.0, 1.0))
        if rng.random() < self.iack_ack_delay_below_rtt:
            return rng.uniform(0.0, max(rtt_ms - 0.1, 0.05))
        return rtt_ms + rng.uniform(0.1, min(rtt_ms * 2.0 + 1.0, 250.0))


#: Fitted deployments, one per CDN (Table 1 + Figure 8 + Figure 10).
DEPLOYMENTS: Dict[Cdn, CdnDeployment] = {
    Cdn.AKAMAI: CdnDeployment(
        cdn=Cdn.AKAMAI, domains=533, iack_share=0.322, share_variation=0.129,
        backend_delay_median_ms=20.9, cert_cached_probability=0.05,
        iack_ack_delay_below_rtt=0.61,
    ),
    Cdn.AMAZON: CdnDeployment(
        cdn=Cdn.AMAZON, domains=4338, iack_share=0.41, share_variation=0.18,
        backend_delay_median_ms=6.4, cert_cached_probability=0.05,
        iack_ack_delay_below_rtt=0.13,
    ),
    Cdn.CLOUDFLARE: CdnDeployment(
        cdn=Cdn.CLOUDFLARE, domains=247407, iack_share=0.999,
        share_variation=0.001, backend_delay_median_ms=3.2,
        cert_cached_probability=0.001,
        coalesced_ack_delay_exceeds_rtt=0.999,
        iack_ack_delay_below_rtt=0.001,
    ),
    Cdn.FASTLY: CdnDeployment(
        cdn=Cdn.FASTLY, domains=3960, iack_share=0.0, share_variation=0.0,
        backend_delay_median_ms=4.0, cert_cached_probability=0.5,
        coalesced_ack_delay_exceeds_rtt=0.605,
    ),
    Cdn.GOOGLE: CdnDeployment(
        cdn=Cdn.GOOGLE, domains=6062, iack_share=0.115, share_variation=0.115,
        backend_delay_median_ms=30.3, cert_cached_probability=0.05,
        coalesced_ack_delay_exceeds_rtt=0.348,
        iack_ack_delay_below_rtt=0.4,
    ),
    Cdn.META: CdnDeployment(
        cdn=Cdn.META, domains=112, iack_share=0.0, share_variation=0.0,
        backend_delay_median_ms=3.0, cert_cached_probability=0.8,
        coalesced_ack_delay_exceeds_rtt=1.0,
    ),
    Cdn.MICROSOFT: CdnDeployment(
        cdn=Cdn.MICROSOFT, domains=34, iack_share=0.0, share_variation=0.0,
        backend_delay_median_ms=5.0, cert_cached_probability=0.5,
    ),
    Cdn.OTHERS: CdnDeployment(
        cdn=Cdn.OTHERS, domains=26404, iack_share=0.215, share_variation=0.023,
        backend_delay_median_ms=8.0, cert_cached_probability=0.08,
        coalesced_ack_delay_exceeds_rtt=0.779,
        iack_ack_delay_below_rtt=0.791,
    ),
}


def deployment_for(cdn: Cdn) -> CdnDeployment:
    return DEPLOYMENTS[cdn]
