"""Figure 8: delay between the first ACK and the ServerHello, per CDN.

"Delay between reception of the first ACK and subsequent ServerHello
(SH) from our vantage point in Sao Paulo. Coalesced ACK–SH is shown
as 0 delay. Akamai is significantly slower than other CDNs to deliver
the ServerHello." Median IACK→SH gaps across vantage points: 3.2 ms
(Cloudflare), 6.4 ms (Amazon), 20.9 ms (Akamai), 30.3 ms (Google).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.stats import cdf, median
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

PAPER_MEDIANS_MS = {
    Cdn.CLOUDFLARE: 3.2,
    Cdn.AMAZON: 6.4,
    Cdn.AKAMAI: 20.9,
    Cdn.GOOGLE: 30.3,
}

FIGURE_CDNS = (Cdn.AKAMAI, Cdn.AMAZON, Cdn.CLOUDFLARE, Cdn.GOOGLE, Cdn.OTHERS)


def cells(params: Params) -> List[Cell]:
    return scan_cells(params, [params["vantage_name"]])


def observe(outcome: PassOutcome) -> Dict[Cdn, Tuple[int, Optional[float], Optional[float], list]]:
    """Per figure CDN: domains probed, the median ACK→SH delay of the
    IACK responses, the coalesced share, and the delays' CDF."""
    out = {}
    for cdn in FIGURE_CDNS:
        probes = [r for r in outcome.records if r.cdn is cdn]
        delays = [r.ack_to_sh_delay_ms for r in probes if r.iack_observed]
        med = median(delays)
        out[cdn] = (
            len(probes),
            None if med is None else round(med, 1),
            round(sum(r.coalesced for r in probes) / len(probes), 3) if probes else None,
            cdf(delays),
        )
    return out


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    vantage_name = params["vantage_name"]
    (per_cdn,) = results
    rows = [
        [cdn.value, total, med, PAPER_MEDIANS_MS.get(cdn), coalesced]
        for cdn, (total, med, coalesced, _cdf) in per_cdn.items()
    ]
    return ExperimentResult(
        experiment_id="fig8",
        title=f"ACK->SH delay per CDN from {vantage_name} (IACK responses)",
        headers=[
            "CDN", "domains probed", "median delay [ms]",
            "paper median [ms]", "coalesced share",
        ],
        rows=rows,
        paper_reference={
            "medians_ms": {c.value: v for c, v in PAPER_MEDIANS_MS.items()},
            "note": "Akamai significantly slower to deliver the SH",
        },
        extra={"cdfs": {cdn.value: points for cdn, (_, _, _, points) in per_cdn.items()}},
    )


SPEC = register(
    ExperimentSpec(
        id="fig8",
        title="ACK→ServerHello delay per CDN (single vantage)",
        paper="Figure 8",
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
