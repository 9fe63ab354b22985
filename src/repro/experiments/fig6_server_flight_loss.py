"""Figure 6: TTFB when the remaining first server flight is lost.

"Time to First Byte of 10 KB file transfer at 9 ms RTT under loss of
packets 2 and 3 (IACK) and packet 2 (WFC) sent by the server. IACK
prolongs the TTFB" — by 177 ms (go-x-net) to 188 ms (neqo), because
the instant ACK is not ack-eliciting, the server gets no RTT sample,
and its retransmission waits for the 200 ms default PTO. quiche
aborts: the duplicate CID retirement issue (§4.2).
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
from repro.interop.scenarios import first_server_flight_tail_loss
from repro.quic.server import ServerMode
from repro.runtime import ArtifactLevel, Cell

RTT_MS = 9.0


def scenarios(
    http: str = "h1", rtt_ms: float = RTT_MS
) -> List[Scenario]:
    """The figure's cell list: clients × {WFC, IACK} in row order."""
    return [
        Scenario(
            client=client,
            mode=mode,
            http=http,
            rtt_ms=rtt_ms,
            response_size=SIZE_10KB,
            server_to_client_loss=first_server_flight_tail_loss(mode),
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
    http, rtt_ms = params["http"], params["rtt_ms"]
    rows: List[List[object]] = []
    raw: Dict[str, Dict[str, List[Optional[float]]]] = {}
    per_scenario = results.groups(params["repetitions"])
    for client in clients_for(http):
        medians: Dict[str, Optional[float]] = {}
        aborts: Dict[str, int] = {}
        raw[client] = {}
        for mode in (ServerMode.WFC, ServerMode.IACK):
            group = next(per_scenario)
            ttfbs = [r.response_ttfb_ms for r in group]
            raw[client][mode.name] = ttfbs
            medians[mode.name] = median(ttfbs)
            aborts[mode.name] = sum(
                1 for r in group if r.client_stats.aborted is not None
            )
        wfc, iack = medians["WFC"], medians["IACK"]
        penalty = None
        if wfc is not None and iack is not None:
            penalty = round(iack - wfc, 1)
        rows.append(
            [
                client,
                None if wfc is None else round(wfc, 1),
                None if iack is None else round(iack, 1),
                penalty,
                f"{aborts['WFC']}/{aborts['IACK']}",
            ]
        )
    return ExperimentResult(
        experiment_id="fig6",
        title=(
            f"TTFB [ms] 10KB @{rtt_ms:.0f}ms RTT, loss of first server "
            f"flight tail, {http}"
        ),
        headers=["client", "WFC median", "IACK median", "IACK penalty", "aborts W/I"],
        rows=rows,
        paper_reference={
            "iack_penalty_range_ms": (177.0, 188.0),
            "quiche": "duplicate CID retirement aborts the measurement (HTTP/1.1)",
        },
        extra={"raw": raw},
    )


SPEC = register(
    ExperimentSpec(
        id="fig6",
        title="TTFB under loss of the first server flight tail",
        paper="Figure 6",
        kind=KIND_MATRIX,
        artifact_level=ArtifactLevel.STATS,
        cells=cells,
        aggregate=aggregate,
        defaults={"http": "h1", "repetitions": 25, "rtt_ms": RTT_MS, "base_seed": 0},
        smoke={"repetitions": 2},
    )
)
