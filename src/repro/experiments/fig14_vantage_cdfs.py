"""Figure 14: ACK→SH delay CDFs from all four vantage points.

"Delay between reception of the first ACK and subsequent ServerHello
(SH) from our four vantage points for domains on the Tranco Top 1M.
IACK performance is similar across locations." Google IACK-enabled
servers are only significantly reachable from Sao Paulo (Appendix G).
"""

from __future__ import annotations

from typing import List

from repro.analysis.stats import median
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import register
from repro.experiments.spec import (
    CellResults,
    ExperimentSpec,
    KIND_WILD,
    Params,
    wild_cells,
)
from repro.runtime import (
    ArtifactLevel,
    get_shared_input,
    parallel_map,
    set_shared_input,
)
from repro.wild.asdb import Cdn
from repro.wild.qscanner import QScanner, scan_with_engine
from repro.wild.tranco import TrancoGenerator
from repro.wild.vantage import VANTAGE_POINTS, vantage

FIGURE_CDNS = (Cdn.AKAMAI, Cdn.AMAZON, Cdn.CLOUDFLARE, Cdn.GOOGLE, Cdn.OTHERS)

def _probe_vantage(vantage_name: str, list_size: int, seed: int, engine: str):
    domains = get_shared_input()
    if domains is None:  # pragma: no cover - non-initialized pool fallback
        domains = TrancoGenerator(list_size=list_size, seed=seed).quic_domains()
    scanner = QScanner(vantage(vantage_name), seed=seed)
    return scan_with_engine(scanner, domains, engine=engine)


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    list_size, seed = params["list_size"], params["seed"]
    generator = TrancoGenerator(list_size=list_size, seed=seed)
    domains = generator.quic_domains()
    vantage_names = sorted(VANTAGE_POINTS)
    per_vantage = parallel_map(
        _probe_vantage,
        [(name, list_size, seed, params["engine"]) for name in vantage_names],
        workers=params["workers"],
        initializer=set_shared_input,
        initargs=(domains,),
    )
    rows: List[List[object]] = []
    for vantage_name, scan in zip(vantage_names, per_vantage):
        for cdn in FIGURE_CDNS:
            delays = [
                r.ack_to_sh_delay_ms
                for r in scan
                if r.cdn is cdn and r.iack_observed
            ]
            med = median(delays)
            rows.append(
                [
                    vantage_name,
                    cdn.value,
                    len(delays),
                    None if med is None else round(med, 1),
                ]
            )
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
        cells=wild_cells,
        aggregate=aggregate,
        defaults={
            "list_size": 50_000,
            "seed": 0,
            "workers": 0,
            "engine": "analytic",
        },
        smoke={"list_size": 5_000},
    )
)
