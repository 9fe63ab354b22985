"""AS database and CDN inference (paper Table 5 / Appendix G).

"CDN hosted domains are inferred from their IP addresses mapped to
origin ASes gained from route announcements ... To account for CDNs
operating multiple ASes, we assign multiple AS numbers to one CDN."
"""

from __future__ import annotations

import enum
import ipaddress
import re
from typing import Dict, Optional, Tuple


class Cdn(enum.Enum):
    AKAMAI = "Akamai"
    AMAZON = "Amazon"
    CLOUDFLARE = "Cloudflare"
    FASTLY = "Fastly"
    GOOGLE = "Google"
    META = "Meta"
    MICROSOFT = "Microsoft"
    OTHERS = "Others"


#: Paper Table 5: AS numbers used for CDN inferences.
CDN_AS_NUMBERS: Dict[Cdn, Tuple[int, ...]] = {
    Cdn.AKAMAI: (16625, 20940),
    Cdn.AMAZON: (14618, 16509),
    Cdn.CLOUDFLARE: (13335, 209242),
    Cdn.FASTLY: (54113,),
    Cdn.GOOGLE: (15169, 396982),
    Cdn.META: (32934,),
    Cdn.MICROSOFT: (8075,),
}

#: A representative AS for "Others" (hosting services).
OTHERS_ASN = 24940  # e.g. a large hoster

#: Every AS owns one ``10.<index>.0.0/16`` prefix of the synthetic
#: routing table (see :class:`AsDatabase`).
_PREFIX_SIZE = 1 << 16

_OCTET = r"(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
#: A canonical dotted quad — exactly the strings ``ipaddress`` reads as
#: IPv4 (ASCII digits, no leading zeros, each octet at most 255).
_DOTTED_QUAD = re.compile(r"\.".join([_OCTET] * 4))


class AsDatabase:
    """Synthetic routing table: one /16 per AS, deterministic.

    Real measurements join IPs against BGP announcements; here every
    AS owns ``10.<index>.0.0/16`` so that address→AS→CDN lookups are
    deterministic and testable. Addresses are built with integer
    arithmetic and read as text, without ``ipaddress`` objects; nothing
    here keeps state that grows with the addresses it has seen.
    """

    def __init__(self) -> None:
        self._asn_to_index: Dict[int, int] = {}
        self._prefix_index: Dict[str, int] = {}  # second octet, as text -> asn
        all_asns = sorted(
            {asn for asns in CDN_AS_NUMBERS.values() for asn in asns} | {OTHERS_ASN}
        )
        for index, asn in enumerate(all_asns, start=1):
            self._asn_to_index[asn] = index
            self._prefix_index[str(index)] = asn
        self._asn_to_cdn: Dict[int, Cdn] = {}
        for cdn, asns in CDN_AS_NUMBERS.items():
            for asn in asns:
                self._asn_to_cdn[asn] = cdn
        self._asn_to_cdn[OTHERS_ASN] = Cdn.OTHERS

    def _index(self, asn: int) -> int:
        try:
            return self._asn_to_index[asn]
        except KeyError:
            raise KeyError(f"ASN {asn} not in database") from None

    def prefix_for_asn(self, asn: int) -> ipaddress.IPv4Network:
        return ipaddress.ip_network(f"10.{self._index(asn)}.0.0/16")

    def address_in_asn(self, asn: int, host_index: int) -> str:
        """Deterministic address: the ``host_index``-th host of the
        AS's prefix."""
        value = (10 << 24 | self._index(asn) << 16) + 1 + host_index % (_PREFIX_SIZE - 2)
        return f"{value >> 24}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"

    def origin_asn(self, address: str) -> Optional[int]:
        """Longest-prefix-match lookup (here: the /16 second octet).

        A canonical dotted quad is read as text; anything else goes
        through :func:`ipaddress.ip_address`, so IPv6 and malformed input
        keep its result and its ``ValueError``.
        """
        match = _DOTTED_QUAD.fullmatch(address) if isinstance(address, str) else None
        if match is None:
            ip = ipaddress.ip_address(address)
            if ip.version != 4:
                return None
            match = _DOTTED_QUAD.fullmatch(str(ip))
        first, second = match.group(1, 2)
        if first != "10":
            return None
        return self._prefix_index.get(second)

    def cdn_for_address(self, address: str) -> Cdn:
        """The paper's inference: IP → origin AS → CDN, with unknown
        origins grouped under "Others" (hosting services)."""
        asn = self.origin_asn(address)
        return Cdn.OTHERS if asn is None else self._asn_to_cdn.get(asn, Cdn.OTHERS)

    def asns_for_cdn(self, cdn: Cdn) -> Tuple[int, ...]:
        if cdn is Cdn.OTHERS:
            return (OTHERS_ASN,)
        return CDN_AS_NUMBERS[cdn]
