"""Figure 7: TTFB when the second client flight is lost.

"Time to First Byte of 10 KB file transfer at 9 ms RTT under loss of
the entire second client flight ... Instant ACK improves the TTFB"
— on median by 10 ms (mvfst), 11 ms (aioquic, quic-go), 12 ms (neqo,
ngtcp2), 23 ms (quiche), 28 ms (go-x-net); picoquic does not benefit
because it ignores the IACK-induced RTT.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.stats import median
from repro.experiments.common import ExperimentResult, clients_for
from repro.experiments.registry import register
from repro.experiments.spec import (
    CellResults,
    ExperimentSpec,
    KIND_MATRIX,
    Params,
    expand_cells,
)
from repro.interop.runner import Scenario, SIZE_10KB
from repro.interop.scenarios import second_client_flight_loss
from repro.quic.server import ServerMode
from repro.runtime import ArtifactLevel, Cell

RTT_MS = 9.0

#: The paper's published median improvements [ms].
PAPER_IMPROVEMENTS_MS = {
    "mvfst": 10.0,
    "aioquic": 11.0,
    "quic-go": 11.0,
    "neqo": 12.0,
    "ngtcp2": 12.0,
    "quiche": 23.0,
    "go-x-net": 28.0,
    "picoquic": 0.0,
}


def scenarios(http: str, rtt_ms: float) -> List[Scenario]:
    return [
        Scenario(
            client=client,
            mode=mode,
            http=http,
            rtt_ms=rtt_ms,
            response_size=SIZE_10KB,
            client_to_server_loss=second_client_flight_loss(client),
        )
        for client in clients_for(http)
        for mode in (ServerMode.WFC, ServerMode.IACK)
    ]


def cells(params: Params) -> List[Cell]:
    return expand_cells(
        scenarios(params["http"], params["rtt_ms"]),
        params["repetitions"],
        params["base_seed"],
    )


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    http = params["http"]
    per_scenario = results.groups(params["repetitions"])
    rows: List[List[object]] = []
    raw: Dict[str, Dict[str, List[Optional[float]]]] = {}
    for client in clients_for(http):
        medians: Dict[str, Optional[float]] = {}
        raw[client] = {}
        for mode in (ServerMode.WFC, ServerMode.IACK):
            group = next(per_scenario)
            ttfbs = [r.response_ttfb_ms for r in group]
            raw[client][mode.name] = ttfbs
            medians[mode.name] = median(ttfbs)
        wfc, iack = medians["WFC"], medians["IACK"]
        improvement = None
        if wfc is not None and iack is not None:
            improvement = round(wfc - iack, 1)
        rows.append(
            [
                client,
                None if wfc is None else round(wfc, 1),
                None if iack is None else round(iack, 1),
                improvement,
                PAPER_IMPROVEMENTS_MS.get(client),
            ]
        )
    return ExperimentResult(
        experiment_id="fig7",
        title=(
            f"TTFB [ms] 10KB @{params['rtt_ms']:.0f}ms RTT, loss of second "
            f"client flight, {http}"
        ),
        headers=[
            "client", "WFC median", "IACK median", "improvement",
            "paper improvement",
        ],
        rows=rows,
        paper_reference={"median_improvements_ms": PAPER_IMPROVEMENTS_MS},
        extra={"raw": raw},
    )


SPEC = register(
    ExperimentSpec(
        id="fig7",
        title="TTFB under loss of the second client flight",
        paper="Figure 7",
        kind=KIND_MATRIX,
        artifact_level=ArtifactLevel.STATS,
        cells=cells,
        aggregate=aggregate,
        defaults={"http": "h1", "repetitions": 25, "rtt_ms": RTT_MS, "base_seed": 0},
        smoke={"repetitions": 2},
    )
)
