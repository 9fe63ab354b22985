"""Measurement vantage points (§3).

"We perform all measurements from a European university network
(Hamburg, DE) and Google Cloud VMs in North America (Los Angeles,
US), South America (Sao Paulo, BR), and Asia (Hong Kong, HK)."

Each vantage point carries an RTT model to CDN edges: anycast CDNs
terminate connections nearby (a few ms), while non-CDN "Others"
servers can be anywhere.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

from repro.wild.asdb import Cdn


@dataclass(frozen=True)
class VantagePoint:
    """One measurement location."""

    name: str
    city: str
    iata: str
    #: (median, sigma) of the lognormal-ish RTT to anycast CDN edges.
    cdn_rtt_median_ms: float
    cdn_rtt_jitter: float
    #: Median RTT to arbitrary ("Others") servers.
    others_rtt_median_ms: float

    @cached_property
    def _rtt_lognormals(self) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        """``(mu, sigma)`` of the RTT lognormal to anycast CDN edges and
        to "Others" servers, computed once per vantage point."""
        return (
            (math.log(self.cdn_rtt_median_ms), self.cdn_rtt_jitter),
            (math.log(self.others_rtt_median_ms), 0.9),
        )

    def rtt_lognormal(self, cdn: Cdn) -> Tuple[float, float]:
        """``(mu, sigma)`` of the path RTT to a server of the given CDN."""
        return self._rtt_lognormals[cdn is Cdn.OTHERS]

    def sample_rtt_ms(self, cdn: Cdn, rng: random.Random) -> float:
        """Path RTT from this vantage to a server of the given CDN."""
        mu, sigma = self._rtt_lognormals[cdn is Cdn.OTHERS]
        return max(0.3, rng.lognormvariate(mu, sigma))


#: The four vantage points of the paper, with RTT medians chosen so
#: the Cloudflare medians of Figure 15 (2.1–2.6 ms between IACK and
#: SH; median RTT such that 6.3–7.2 ms is "up to 79 % of the median
#: RTT") are reproduced.
VANTAGE_POINTS: Dict[str, VantagePoint] = {
    "Hamburg": VantagePoint(
        name="Hamburg", city="Hamburg", iata="HAM",
        cdn_rtt_median_ms=8.5, cdn_rtt_jitter=0.35, others_rtt_median_ms=42.0,
    ),
    "Los Angeles": VantagePoint(
        name="Los Angeles", city="Los Angeles", iata="LAX",
        cdn_rtt_median_ms=9.0, cdn_rtt_jitter=0.35, others_rtt_median_ms=55.0,
    ),
    "Sao Paulo": VantagePoint(
        name="Sao Paulo", city="Sao Paulo", iata="GRU",
        cdn_rtt_median_ms=8.8, cdn_rtt_jitter=0.4, others_rtt_median_ms=80.0,
    ),
    "Hong Kong": VantagePoint(
        name="Hong Kong", city="Hong Kong", iata="HKG",
        cdn_rtt_median_ms=9.2, cdn_rtt_jitter=0.4, others_rtt_median_ms=70.0,
    ),
}


def vantage(name: str) -> VantagePoint:
    try:
        return VANTAGE_POINTS[name]
    except KeyError:
        raise KeyError(
            f"unknown vantage point {name!r}; known: "
            f"{', '.join(sorted(VANTAGE_POINTS))}"
        ) from None
