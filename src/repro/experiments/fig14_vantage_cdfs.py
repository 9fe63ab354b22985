"""Figure 14: ACK→SH delay CDFs from all four vantage points.

"Delay between reception of the first ACK and subsequent ServerHello
(SH) from our four vantage points for domains on the Tranco Top 1M.
IACK performance is similar across locations." Google IACK-enabled
servers are only significantly reachable from Sao Paulo (Appendix G).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.stats import median
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
from repro.wild.vantage import VANTAGE_POINTS

FIGURE_CDNS = (Cdn.AKAMAI, Cdn.AMAZON, Cdn.CLOUDFLARE, Cdn.GOOGLE, Cdn.OTHERS)


def cells(params: Params) -> List[Cell]:
    return scan_cells(params, sorted(VANTAGE_POINTS))


def observe(outcome: PassOutcome) -> Dict[Cdn, Tuple[int, Optional[float]]]:
    """Per figure CDN: IACK responses seen and their median ACK→SH delay."""
    out = {}
    for cdn in FIGURE_CDNS:
        delays = [
            r.ack_to_sh_delay_ms for r in outcome.records if r.cdn is cdn and r.iack_observed
        ]
        med = median(delays)
        out[cdn] = (len(delays), None if med is None else round(med, 1))
    return out


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    rows = [
        [vantage_name, cdn.value, responses, med]
        for vantage_name, per_cdn in zip(sorted(VANTAGE_POINTS), results)
        for cdn, (responses, med) in per_cdn.items()
    ]
    return ExperimentResult(
        experiment_id="fig14",
        title="ACK->SH delay per CDN and vantage point",
        headers=["vantage", "CDN", "IACK responses", "median delay [ms]"],
        rows=rows,
        paper_reference={
            "note": "per-CDN delay distributions homogeneous across vantages",
        },
    )


SPEC = register(
    ExperimentSpec(
        id="fig14",
        title="ACK→ServerHello delay CDFs across vantage points",
        paper="Figure 14",
        kind=KIND_WILD,
        artifact_level=ArtifactLevel.STATS,
        cells=cells,
        aggregate=aggregate,
        observe=observe,
        defaults={
            "list_size": 50_000,
            "seed": 0,
            "engine": "analytic",
        },
        smoke={"list_size": 5_000},
    )
)
