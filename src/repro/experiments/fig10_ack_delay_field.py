"""Figure 10: difference between client-frontend RTT and the
acknowledgment delay carried in the first ACK.

"Coalesced ACK–SHs tend to carry an acknowledgment close to or
exceeding the RTT. IACKs more frequently contain values lower than
the RTT, allowing the client to correctly adjust the RTT sample."
Shares of coalesced ACK–SH with ack_delay > RTT: Akamai 99.8 %,
Amazon 87.3 %, Cloudflare 99.9 %, Fastly 60.5 %, Meta 100 %, Others
77.9 %, Google 34.8 %. IACK ack delays below the RTT: Akamai 61 %,
Others 79.1 %.
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import register
from repro.experiments.spec import (
    CellResults,
    ExperimentSpec,
    KIND_WILD,
    Params,
    wild_cells,
)
from repro.runtime import ArtifactLevel
from repro.wild.asdb import Cdn
from repro.wild.qscanner import QScanner, scan_with_engine
from repro.wild.tranco import TrancoGenerator
from repro.wild.vantage import vantage

PAPER_COALESCED_EXCEEDS = {
    Cdn.AKAMAI: 0.998,
    Cdn.AMAZON: 0.873,
    Cdn.CLOUDFLARE: 0.999,
    Cdn.FASTLY: 0.605,
    Cdn.META: 1.0,
    Cdn.GOOGLE: 0.348,
    Cdn.OTHERS: 0.779,
}
PAPER_IACK_BELOW = {Cdn.AKAMAI: 0.61, Cdn.OTHERS: 0.791}


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    list_size, seed = params["list_size"], params["seed"]
    generator = TrancoGenerator(list_size=list_size, seed=seed)
    scanner = QScanner(vantage(params["vantage_name"]), seed=seed)
    domains = generator.quic_domains()
    scan = scan_with_engine(scanner, domains, engine=params["engine"])
    rows: List[List[object]] = []
    for cdn in Cdn:
        coalesced = [r for r in scan if r.cdn is cdn and r.coalesced]
        iack = [r for r in scan if r.cdn is cdn and r.iack_observed]
        exceeds = (
            sum(1 for r in coalesced if r.ack_delay_field_ms > r.rtt_ms)
            / len(coalesced)
            if coalesced
            else None
        )
        below = (
            sum(1 for r in iack if r.ack_delay_field_ms < r.rtt_ms) / len(iack)
            if iack
            else None
        )
        rows.append(
            [
                cdn.value,
                None if exceeds is None else round(exceeds, 3),
                PAPER_COALESCED_EXCEEDS.get(cdn),
                None if below is None else round(below, 3),
                PAPER_IACK_BELOW.get(cdn),
            ]
        )
    return ExperimentResult(
        experiment_id="fig10",
        title="Acknowledgment delay vs RTT (coalesced ACK-SH and IACK)",
        headers=[
            "CDN",
            "coalesced: P(ack_delay > RTT)",
            "paper",
            "IACK: P(ack_delay < RTT)",
            "paper ",
        ],
        rows=rows,
        paper_reference={
            "coalesced_exceeds_rtt": {
                c.value: v for c, v in PAPER_COALESCED_EXCEEDS.items()
            },
            "iack_below_rtt": {c.value: v for c, v in PAPER_IACK_BELOW.items()},
        },
    )


SPEC = register(
    ExperimentSpec(
        id="fig10",
        title="Acknowledgment delay field vs RTT per CDN",
        paper="Figure 10",
        kind=KIND_WILD,
        artifact_level=ArtifactLevel.STATS,
        cells=wild_cells,
        aggregate=aggregate,
        defaults={
            "list_size": 100_000,
            "vantage_name": "Sao Paulo",
            "seed": 0,
            "engine": "analytic",
        },
        smoke={"list_size": 5_000},
    )
)
