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

from typing import Dict, List, Optional, Tuple

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import register
from repro.experiments.spec import (
    CellResults,
    ExperimentSpec,
    KIND_WILD,
    Params,
    scan_cells,
)
from repro.runtime import ArtifactLevel, Cell
from repro.wild.asdb import Cdn
from repro.wild.passes import PassOutcome

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


def cells(params: Params) -> List[Cell]:
    return scan_cells(params, [params["vantage_name"]])


def _share(hits: List[bool]) -> Optional[float]:
    return round(sum(hits) / len(hits), 3) if hits else None


def observe(outcome: PassOutcome) -> Dict[Cdn, Tuple[Optional[float], Optional[float]]]:
    """Per CDN: the share of coalesced ACK–SH whose ack delay exceeds
    the RTT, and of IACKs whose ack delay is below it."""
    out = {}
    for cdn in Cdn:
        probes = [r for r in outcome.records if r.cdn is cdn]
        out[cdn] = (
            _share([r.ack_delay_field_ms > r.rtt_ms for r in probes if r.coalesced]),
            _share([r.ack_delay_field_ms < r.rtt_ms for r in probes if r.iack_observed]),
        )
    return out


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    (per_cdn,) = results
    rows = [
        [cdn.value, exceeds, PAPER_COALESCED_EXCEEDS.get(cdn), below, PAPER_IACK_BELOW.get(cdn)]
        for cdn, (exceeds, below) in per_cdn.items()
    ]
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
        cells=cells,
        aggregate=aggregate,
        observe=observe,
        defaults={
            "list_size": 100_000,
            "vantage_name": "Sao Paulo",
            "seed": 0,
            "engine": "analytic",
        },
        smoke={"list_size": 5_000},
    )
)
