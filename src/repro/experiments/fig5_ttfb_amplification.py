"""Figure 5: TTFB when the server is blocked by the anti-amplification
limit.

"Time to First Byte (TTFB) of 10 KB file transfer at 9 ms RTT with
large certificate, Δt = 200 ms, and without packet loss." The paper
reports the most significant IACK improvements for neqo (9.6 ms) and
ngtcp2 (10 ms); aioquic/mvfst/quic-go see the default client PTO
expire in both modes; picoquic performs equally; quiche shows
negative effects.
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
from repro.quic.certs import LARGE_CERTIFICATE
from repro.quic.server import ServerMode
from repro.runtime import ArtifactLevel, Cell

RTT_MS = 9.0
DELTA_T_MS = 200.0


def scenarios(http: str, rtt_ms: float, delta_t_ms: float) -> List[Scenario]:
    return [
        Scenario(
            client=client,
            mode=mode,
            http=http,
            rtt_ms=rtt_ms,
            delta_t_ms=delta_t_ms,
            certificate=LARGE_CERTIFICATE,
            response_size=SIZE_10KB,
        )
        for client in clients_for(http)
        for mode in (ServerMode.WFC, ServerMode.IACK)
    ]


def cells(params: Params) -> List[Cell]:
    return expand_cells(
        scenarios(params["http"], params["rtt_ms"], params["delta_t_ms"]),
        params["repetitions"],
        params["base_seed"],
    )


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    http = params["http"]
    per_scenario = results.groups(params["repetitions"])
    rows: List[List[object]] = []
    per_client: Dict[str, Dict[str, List[Optional[float]]]] = {}
    for client in clients_for(http):
        medians: Dict[str, Optional[float]] = {}
        raw: Dict[str, List[Optional[float]]] = {}
        for mode in (ServerMode.WFC, ServerMode.IACK):
            group = next(per_scenario)
            ttfbs = [r.ttfb_ms for r in group]
            raw[mode.name] = ttfbs
            medians[mode.name] = median(ttfbs)
        per_client[client] = raw
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
            ]
        )
    return ExperimentResult(
        experiment_id="fig5",
        title=(
            f"TTFB [ms] 10KB @{params['rtt_ms']:.0f}ms RTT, large cert, "
            f"dt={params['delta_t_ms']:.0f}ms, no loss, {http}"
        ),
        headers=["client", "WFC median", "IACK median", "improvement"],
        rows=rows,
        paper_reference={
            "neqo_improvement_ms": 9.6,
            "ngtcp2_improvement_ms": 10.0,
            "picoquic": "equal performance",
            "quiche": "negative effects with IACK",
            "aioquic/mvfst/quic-go": "default PTO expires in both modes",
        },
        extra={"raw": per_client},
    )


SPEC = register(
    ExperimentSpec(
        id="fig5",
        title="TTFB under the anti-amplification limit (large cert)",
        paper="Figure 5",
        kind=KIND_MATRIX,
        artifact_level=ArtifactLevel.STATS,
        cells=cells,
        aggregate=aggregate,
        defaults={
            "http": "h3",
            "repetitions": 25,
            "rtt_ms": RTT_MS,
            "delta_t_ms": DELTA_T_MS,
            "base_seed": 0,
        },
        smoke={"repetitions": 2},
    )
)
