"""Table 2: deployment suggestions with and without packet loss.

The advisor's decision table must match the published one exactly:

====================  ===================  ==============  ==========  ==========
certificate size      first server flight  second client   no loss     no loss
vs amplification      except first dgram   flight          dt < 3RTT   dt >= 3RTT
====================  ===================  ==============  ==========  ==========
(1) fits budget       WFC                  IACK            IACK        WFC
(2) exceeds budget    IACK                 IACK            IACK        IACK
====================  ===================  ==============  ==========  ==========
"""

from __future__ import annotations

from typing import List

from repro.core.advisor import DeploymentAdvisor, Recommendation
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import register
from repro.experiments.spec import (
    CellResults,
    ExperimentSpec,
    KIND_MODEL,
    Params,
)
from repro.runtime import ArtifactLevel, Cell

PAPER_TABLE = {
    "fits": {
        "first_server_flight_tail": Recommendation.WFC,
        "second_client_flight": Recommendation.IACK,
        "no_loss_small_delta": Recommendation.IACK,
        "no_loss_large_delta": Recommendation.WFC,
    },
    "exceeds": {
        "first_server_flight_tail": Recommendation.IACK,
        "second_client_flight": Recommendation.IACK,
        "no_loss_small_delta": Recommendation.IACK,
        "no_loss_large_delta": Recommendation.IACK,
    },
}


def cells(params: Params) -> List[Cell]:
    return []


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    advisor = DeploymentAdvisor()
    table = advisor.table2(rtt_ms=params["rtt_ms"])
    rows = []
    matches = True
    for cert_row, columns in table.items():
        for column, recommendation in columns.items():
            expected = PAPER_TABLE[cert_row][column]
            ok = recommendation is expected
            matches = matches and ok
            rows.append(
                [
                    cert_row,
                    column,
                    recommendation.name,
                    expected.name,
                    "ok" if ok else "MISMATCH",
                ]
            )
    return ExperimentResult(
        experiment_id="table2",
        title="Deployment guidelines (advisor vs paper Table 2)",
        headers=["certificate", "scenario", "advisor", "paper", "status"],
        rows=rows,
        paper_reference={"matches_paper": matches},
        extra={"matches": matches},
    )


SPEC = register(
    ExperimentSpec(
        id="table2",
        title="Deployment guidelines decision table",
        paper="Table 2",
        kind=KIND_MODEL,
        artifact_level=ArtifactLevel.STATS,
        cells=cells,
        aggregate=aggregate,
        defaults={"rtt_ms": 9.0},
    )
)
