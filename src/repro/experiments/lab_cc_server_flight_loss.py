"""Recovery lab: the Figure 6 loss scenario × congestion controller.

Reruns the paper's first-server-flight-tail loss experiment (TTFB of a
10 KB transfer at 9 ms RTT, "loss of packets 2 and 3 (IACK) and packet
2 (WFC) sent by the server") under each swept
:class:`~repro.quic.profiles.RecoveryProfile`, asking whether the
instant-ACK penalty the paper measures is robust to the congestion
controller choice. The handshake flights sit far below the initial
window, so the expected result — and the lab's calibration check — is
that the IACK penalty is CC-invariant while bulk-phase behavior may
differ.
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
PROFILES = ("default", "cubic")


def scenarios(
    http: str = "h1",
    rtt_ms: float = RTT_MS,
    profiles=PROFILES,
) -> List[Scenario]:
    """Cell list: clients × profiles × {WFC, IACK} in row order."""
    return [
        Scenario(
            client=client,
            mode=mode,
            http=http,
            rtt_ms=rtt_ms,
            response_size=SIZE_10KB,
            server_to_client_loss=first_server_flight_tail_loss(mode),
            recovery_profile=profile,
        )
        for client in clients_for(http)
        for profile in profiles
        for mode in (ServerMode.WFC, ServerMode.IACK)
    ]


def cells(params: Params) -> List[Cell]:
    return expand_cells(
        scenarios(params["http"], params["rtt_ms"], tuple(params["profiles"])),
        params["repetitions"],
        params["base_seed"],
    )


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    http, rtt_ms = params["http"], params["rtt_ms"]
    profiles = tuple(params["profiles"])
    rows: List[List[object]] = []
    per_scenario = results.groups(params["repetitions"])
    for client in clients_for(http):
        for profile in profiles:
            medians: Dict[str, Optional[float]] = {}
            aborts: Dict[str, int] = {}
            for mode in (ServerMode.WFC, ServerMode.IACK):
                group = next(per_scenario)
                medians[mode.name] = median([r.response_ttfb_ms for r in group])
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
                    profile,
                    None if wfc is None else round(wfc, 1),
                    None if iack is None else round(iack, 1),
                    penalty,
                    f"{aborts['WFC']}/{aborts['IACK']}",
                ]
            )
    return ExperimentResult(
        experiment_id="lab_cc",
        title=(
            f"Recovery lab: TTFB [ms] 10KB @{rtt_ms:.0f}ms RTT, first server "
            f"flight tail loss, {http}, CC sweep {list(profiles)}"
        ),
        headers=[
            "client",
            "profile",
            "WFC median",
            "IACK median",
            "IACK penalty",
            "aborts W/I",
        ],
        rows=rows,
        paper_reference={
            "baseline": "Figure 6",
            "expectation": (
                "the IACK penalty is congestion-controller-invariant: the "
                "handshake flights never fill the initial window"
            ),
        },
    )


SPEC = register(
    ExperimentSpec(
        id="lab_cc",
        title="Recovery lab: server-flight loss × congestion controller",
        paper="Figure 6 (extension)",
        kind=KIND_MATRIX,
        artifact_level=ArtifactLevel.STATS,
        cells=cells,
        aggregate=aggregate,
        defaults={
            "http": "h1",
            "repetitions": 25,
            "rtt_ms": RTT_MS,
            "profiles": PROFILES,
            "base_seed": 0,
        },
        smoke={"repetitions": 2},
    )
)
