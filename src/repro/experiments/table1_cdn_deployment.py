"""Table 1: instant ACK deployment per CDN on the Tranco Top 1M.

"Domains from the Tranco Top 1M hosted by CDNs, share of instant ACK
deployment, and maximum difference between measurements. Deployment
share and maximum variation are aggregated across vantage points and
repetitions."
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

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
from repro.wild.qscanner import deployment_share
from repro.wild.vantage import VANTAGE_POINTS

PAPER_SHARES = {
    Cdn.AKAMAI: (533, 32.2, 12.9),
    Cdn.AMAZON: (4338, 41.0, 18.0),
    Cdn.CLOUDFLARE: (247407, 99.9, 0.1),
    Cdn.FASTLY: (3960, 0.0, 0.0),
    Cdn.GOOGLE: (6062, 11.5, 11.5),
    Cdn.META: (112, 0.0, 0.0),
    Cdn.MICROSOFT: (34, 0.0, 0.0),
    Cdn.OTHERS: (26404, 21.5, 2.3),
}


def cells(params: Params) -> List[Cell]:
    names = params["vantage_names"]
    return scan_cells(params, sorted(VANTAGE_POINTS) if names is None else names, params["days"])


def observe(outcome: PassOutcome) -> Tuple[Dict[Cdn, float], Dict[Cdn, int]]:
    """One vantage × day pass → per-CDN deployment shares and domain
    counts."""
    return deployment_share(outcome.records), Counter(r.cdn for r in outcome.records)


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    list_size, days = params["list_size"], params["days"]
    measurements = [shares for shares, _counts in results]
    counts = results[0][1]  # every pass scans the same list
    rows: List[List[object]] = []
    for cdn in Cdn:
        shares = [m.get(cdn, 0.0) * 100.0 for m in measurements]
        max_share = max(shares) if shares else 0.0
        variation = (max(shares) - min(shares)) if shares else 0.0
        paper_domains, paper_share, paper_variation = PAPER_SHARES[cdn]
        rows.append(
            [
                cdn.value,
                counts.get(cdn, 0),
                round(max_share, 1),
                paper_share,
                round(variation, 1),
                paper_variation,
            ]
        )
    return ExperimentResult(
        experiment_id="table1",
        title=(
            f"IACK deployment per CDN ({list_size} domains, "
            f"{len(results) // days} vantages x {days} days)"
        ),
        headers=[
            "CDN", "domains", "enabled max [%]", "paper [%]",
            "variation [%]", "paper variation [%]",
        ],
        rows=rows,
        paper_reference={
            "shares": {c.value: v for c, v in PAPER_SHARES.items()},
        },
    )


SPEC = register(
    ExperimentSpec(
        id="table1",
        title="Instant ACK deployment per CDN (Tranco scan)",
        paper="Table 1",
        kind=KIND_WILD,
        artifact_level=ArtifactLevel.STATS,
        cells=cells,
        aggregate=aggregate,
        observe=observe,
        defaults={
            "list_size": 100_000,
            "days": 2,
            "vantage_names": None,
            "seed": 0,
            "engine": "analytic",
        },
        smoke={"list_size": 5_000, "days": 1, "vantage_names": ("Sao Paulo",)},
    )
)
