"""Recovery lab: the Figure 12 RTT sweep × recovery profile.

Extends the paper's server-flight-loss RTT sweep (Figure 12) across
the recovery-profile axes: congestion controller (NewReno vs CUBIC)
and loss-detection strategy (RFC 9002 packet+time thresholds vs each
threshold in isolation). One client keeps the matrix focused — the
cross-client spread is Figure 12's result; here the axis of interest
is the recovery strategy, swept at every RTT.
"""

from __future__ import annotations

from typing import List

from repro.analysis.stats import median
from repro.experiments.common import ExperimentResult
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

CLIENT = "quic-go"
RTTS_MS = (1.0, 9.0, 20.0, 100.0, 300.0)
PROFILES = ("default", "cubic", "packet-only", "time-only")


def scenarios(
    client: str = CLIENT, rtts_ms=RTTS_MS, profiles=PROFILES
) -> List[Scenario]:
    """Cell list: RTTs × profiles × {WFC, IACK} in row order."""
    return [
        Scenario(
            client=client,
            mode=mode,
            http="h1",
            rtt_ms=rtt_ms,
            response_size=SIZE_10KB,
            server_to_client_loss=first_server_flight_tail_loss(mode),
            recovery_profile=profile,
        )
        for rtt_ms in rtts_ms
        for profile in profiles
        for mode in (ServerMode.WFC, ServerMode.IACK)
    ]


def cells(params: Params) -> List[Cell]:
    return expand_cells(
        scenarios(
            params["client"], tuple(params["rtts_ms"]), tuple(params["profiles"])
        ),
        params["repetitions"],
        params["base_seed"],
    )


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    rtts = tuple(params["rtts_ms"])
    profiles = tuple(params["profiles"])
    rows: List[List[object]] = []
    per_scenario = results.groups(params["repetitions"])
    for rtt_ms in rtts:
        for profile in profiles:
            medians = {}
            for mode in (ServerMode.WFC, ServerMode.IACK):
                group = next(per_scenario)
                medians[mode.name] = median([r.response_ttfb_ms for r in group])
            wfc, iack = medians["WFC"], medians["IACK"]
            penalty = None
            if wfc is not None and iack is not None:
                penalty = round(iack - wfc, 1)
            rows.append(
                [
                    f"{rtt_ms:g} ms",
                    profile,
                    None if wfc is None else round(wfc, 1),
                    None if iack is None else round(iack, 1),
                    penalty,
                ]
            )
    return ExperimentResult(
        experiment_id="lab_rtt",
        title=(
            f"Recovery lab: TTFB [ms] 10KB, first server flight tail loss, "
            f"{params['client']}, RTT × profile sweep"
        ),
        headers=["RTT", "profile", "WFC median", "IACK median", "IACK penalty"],
        rows=rows,
        paper_reference={
            "baseline": "Figure 12",
            "note": (
                "packet-only loss detection leaves tail losses to the PTO; "
                "time-only never short-circuits on reordering"
            ),
        },
    )


SPEC = register(
    ExperimentSpec(
        id="lab_rtt",
        title="Recovery lab: server-flight loss across RTTs × profile",
        paper="Figure 12 (extension)",
        kind=KIND_MATRIX,
        artifact_level=ArtifactLevel.STATS,
        cells=cells,
        aggregate=aggregate,
        defaults={
            "client": CLIENT,
            "repetitions": 10,
            "rtts_ms": RTTS_MS,
            "profiles": PROFILES,
            "base_seed": 0,
        },
        smoke={"repetitions": 2, "rtts_ms": (9.0, 100.0)},
    )
)
