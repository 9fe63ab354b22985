"""Table 5: AS numbers used for CDN inferences.

Verifies the AS database round trip: every CDN's published AS numbers
map back to the CDN via address-based inference.
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import register
from repro.experiments.spec import (
    CellResults,
    ExperimentSpec,
    KIND_MODEL,
    Params,
)
from repro.runtime import ArtifactLevel, Cell
from repro.wild.asdb import AsDatabase, CDN_AS_NUMBERS, Cdn

PAPER_TABLE5 = {
    Cdn.AKAMAI: (16625, 20940),
    Cdn.AMAZON: (14618, 16509),
    Cdn.CLOUDFLARE: (13335, 209242),
    Cdn.FASTLY: (54113,),
    Cdn.GOOGLE: (15169, 396982),
    Cdn.META: (32934,),
    Cdn.MICROSOFT: (8075,),
}


def cells(params: Params) -> List[Cell]:
    return []


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    asdb = AsDatabase()
    rows: List[List[object]] = []
    all_ok = True
    for cdn, asns in PAPER_TABLE5.items():
        registered = CDN_AS_NUMBERS[cdn]
        roundtrip_ok = True
        for asn in asns:
            address = asdb.address_in_asn(asn, 0)
            inferred = asdb.cdn_for_address(address)
            roundtrip_ok = roundtrip_ok and inferred is cdn
        match = tuple(sorted(registered)) == tuple(sorted(asns))
        all_ok = all_ok and match and roundtrip_ok
        rows.append(
            [
                cdn.value,
                ", ".join(str(a) for a in sorted(registered)),
                ", ".join(str(a) for a in sorted(asns)),
                "ok" if (match and roundtrip_ok) else "MISMATCH",
            ]
        )
    return ExperimentResult(
        experiment_id="table5",
        title="AS numbers used for CDN inference",
        headers=["CDN", "database", "paper", "status"],
        rows=rows,
        paper_reference={"table5": {c.value: v for c, v in PAPER_TABLE5.items()}},
        extra={"matches": all_ok},
    )


SPEC = register(
    ExperimentSpec(
        id="table5",
        title="AS numbers used for CDN inference",
        paper="Table 5",
        kind=KIND_MODEL,
        artifact_level=ArtifactLevel.STATS,
        cells=cells,
        aggregate=aggregate,
    )
)
