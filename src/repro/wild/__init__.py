"""Synthetic macroscopic Internet for the wild measurements.

The paper probes the Tranco Top 1M with QScanner, maps contacted IPs
to ASes and CDNs (Table 5), classifies instant ACK deployment
(Table 1), studies ACK→ServerHello delays per CDN and vantage point
(Figures 8, 14), acknowledgment-delay fields (Figure 10, Appendix D),
and runs a one-week longitudinal study against Cloudflare (Figures 9
and 15).

Offline, the live Internet is replaced by a generative model fitted to
the paper's published aggregates: a Tranco-like toplist with CDN
hosting shares, per-CDN instant-ACK deployment shares and backend
delays, per-vantage-point RTT distributions, and a Cloudflare edge
with certificate caching and a diurnal backend-delay cycle. The
*analysis pipeline* — prober, classification, statistics —
is the same code a live measurement would use.
"""

from repro.wild.asdb import CDN_AS_NUMBERS, AsDatabase, Cdn
from repro.wild.cdn import DEPLOYMENTS, CdnDeployment, deployment_for
from repro.wild.cloudflare import CloudflareLongitudinalStudy
from repro.wild.qscanner import ProbeResult, QScanner
from repro.wild.tranco import TrancoDomain, TrancoGenerator
from repro.wild.vantage import VANTAGE_POINTS, VantagePoint

__all__ = [
    "Cdn",
    "CDN_AS_NUMBERS",
    "AsDatabase",
    "TrancoGenerator",
    "TrancoDomain",
    "CdnDeployment",
    "DEPLOYMENTS",
    "deployment_for",
    "VantagePoint",
    "VANTAGE_POINTS",
    "QScanner",
    "ProbeResult",
    "CloudflareLongitudinalStudy",
]
