"""Figure 12: the Figure 6 scenario across emulated RTTs.

"Time to First Byte of 10 KB file transfer at different RTTs under
loss of packets 2 and 3 (IACK) and packet 2 (WFC) sent by the server.
IACK prolongs the TTFB for all RTTs until the default PTO of the
client is reached or until the PTO for the Handshake packet number
space becomes relevant ... At 300 ms RTT, IACK outperforms WFC."
"""

from __future__ import annotations

from typing import List

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

RTTS_MS = (1.0, 9.0, 20.0, 100.0, 300.0)


def scenarios(http: str, rtts_ms) -> List[Scenario]:
    return [
        Scenario(
            client=client,
            mode=mode,
            http=http,
            rtt_ms=rtt,
            response_size=SIZE_10KB,
            server_to_client_loss=first_server_flight_tail_loss(mode),
        )
        for rtt in rtts_ms
        for client in clients_for(http)
        for mode in (ServerMode.WFC, ServerMode.IACK)
    ]


def cells(params: Params) -> List[Cell]:
    return expand_cells(
        scenarios(params["http"], params["rtts_ms"]),
        params["repetitions"],
        params["base_seed"],
    )


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    http = params["http"]
    per_scenario = results.groups(params["repetitions"])
    rows: List[List[object]] = []
    for rtt in params["rtts_ms"]:
        for client in clients_for(http):
            medians = {}
            for mode in (ServerMode.WFC, ServerMode.IACK):
                group = next(per_scenario)
                medians[mode.name] = median([r.response_ttfb_ms for r in group])
            wfc, iack = medians["WFC"], medians["IACK"]
            rows.append(
                [
                    rtt,
                    client,
                    None if wfc is None else round(wfc, 1),
                    None if iack is None else round(iack, 1),
                    None if (wfc is None or iack is None) else round(iack - wfc, 1),
                ]
            )
    return ExperimentResult(
        experiment_id="fig12",
        title=f"TTFB [ms] across RTTs, first-server-flight tail loss, {http}",
        headers=["RTT [ms]", "client", "WFC median", "IACK median", "IACK penalty"],
        rows=rows,
        paper_reference={
            "note": (
                "IACK penalty ~ server default PTO at low RTTs, "
                "shrinking at 100 ms, inverted at 300 ms"
            ),
        },
    )


SPEC = register(
    ExperimentSpec(
        id="fig12",
        title="Figure 6 scenario swept across emulated RTTs",
        paper="Figure 12",
        kind=KIND_MATRIX,
        artifact_level=ArtifactLevel.STATS,
        cells=cells,
        aggregate=aggregate,
        defaults={
            "http": "h1",
            "repetitions": 10,
            "rtts_ms": RTTS_MS,
            "base_seed": 0,
        },
        smoke={"repetitions": 2, "rtts_ms": (9.0, 100.0)},
    )
)
