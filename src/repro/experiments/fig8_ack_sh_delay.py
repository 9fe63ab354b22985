"""Figure 8: delay between the first ACK and the ServerHello, per CDN.

"Delay between reception of the first ACK and subsequent ServerHello
(SH) from our vantage point in Sao Paulo. Coalesced ACK–SH is shown
as 0 delay. Akamai is significantly slower than other CDNs to deliver
the ServerHello." Median IACK→SH gaps across vantage points: 3.2 ms
(Cloudflare), 6.4 ms (Amazon), 20.9 ms (Akamai), 30.3 ms (Google).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.stats import cdf, median
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import register
from repro.experiments.spec import (
    CellResults,
    ExperimentSpec,
    KIND_WILD,
    Params,
)
from repro.runtime import ArtifactLevel, Cell
from repro.wild.asdb import Cdn
from repro.wild.qscanner import QScanner, scan_with_engine
from repro.wild.tranco import TrancoGenerator
from repro.wild.vantage import vantage

PAPER_MEDIANS_MS = {
    Cdn.CLOUDFLARE: 3.2,
    Cdn.AMAZON: 6.4,
    Cdn.AKAMAI: 20.9,
    Cdn.GOOGLE: 30.3,
}

FIGURE_CDNS = (Cdn.AKAMAI, Cdn.AMAZON, Cdn.CLOUDFLARE, Cdn.GOOGLE, Cdn.OTHERS)


def cells(params: Params) -> List[Cell]:
    return []


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    list_size, seed = params["list_size"], params["seed"]
    vantage_name = params["vantage_name"]
    generator = TrancoGenerator(list_size=list_size, seed=seed)
    scanner = QScanner(vantage(vantage_name), seed=seed)
    domains = generator.quic_domains()
    scan = scan_with_engine(scanner, domains, engine=params["engine"])
    rows: List[List[object]] = []
    cdfs: Dict[Cdn, List] = {}
    for cdn in FIGURE_CDNS:
        delays = [
            r.ack_to_sh_delay_ms for r in scan
            if r.cdn is cdn and r.iack_observed
        ]
        coalesced = sum(1 for r in scan if r.cdn is cdn and r.coalesced)
        total = sum(1 for r in scan if r.cdn is cdn)
        cdfs[cdn] = cdf(delays)
        med = median(delays)
        rows.append(
            [
                cdn.value,
                total,
                None if med is None else round(med, 1),
                PAPER_MEDIANS_MS.get(cdn),
                round(coalesced / total, 3) if total else None,
            ]
        )
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
        extra={"cdfs": {c.value: v for c, v in cdfs.items()}},
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
        defaults={
            "list_size": 100_000,
            "vantage_name": "Sao Paulo",
            "seed": 0,
            "engine": "analytic",
        },
        smoke={"list_size": 5_000},
    )
)
