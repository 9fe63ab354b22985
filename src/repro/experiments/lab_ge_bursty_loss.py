"""Recovery lab: PTO behavior under Gilbert-Elliott bursty loss.

The paper's loss figures use surgical indexed loss to isolate root
causes; this lab experiment turns the knob the other way and runs the
10 KB transfer through a two-state Markov (Gilbert-Elliott) bursty
channel on the server→client link, comparing loss-detection
strategies. Burst losses are where the detectors diverge: the RFC 9002
combination declares bursts via the packet threshold, packet-only
detection strands tail losses on the PTO (probe counts rise), and
time-only detection waits out the full time threshold.

The loss process is seeded per scenario and reset per run, so every
repetition and every profile sees the *identical* loss sequence — a
paired design in the spirit of the paper's deterministic-loss
methodology ("simulates particular datagram losses to better
understand root causes", §3). Repetitions vary only the stacks'
behavior jitters; ``ge_seed`` selects a different loss realization.
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
from repro.quic.server import ServerMode
from repro.runtime import ArtifactLevel, Cell
from repro.sim.loss import GilbertElliottLoss

CLIENT = "quic-go"
RTT_MS = 25.0
PROFILES = ("default", "packet-only", "time-only")
GE_P = 0.08
GE_R = 0.4
GE_H = 0.0


def scenarios(
    client: str = CLIENT,
    rtt_ms: float = RTT_MS,
    profiles=PROFILES,
    ge_p: float = GE_P,
    ge_r: float = GE_R,
    ge_h: float = GE_H,
    ge_seed: int = 1,
) -> List[Scenario]:
    """Cell list: profiles × {WFC, IACK} in row order."""
    return [
        Scenario(
            client=client,
            mode=mode,
            http="h1",
            rtt_ms=rtt_ms,
            response_size=SIZE_10KB,
            server_to_client_loss=GilbertElliottLoss(
                ge_p, ge_r, ge_h, seed=ge_seed
            ),
            recovery_profile=profile,
        )
        for profile in profiles
        for mode in (ServerMode.WFC, ServerMode.IACK)
    ]


def cells(params: Params) -> List[Cell]:
    return expand_cells(
        scenarios(
            params["client"],
            params["rtt_ms"],
            tuple(params["profiles"]),
            params["ge_p"],
            params["ge_r"],
            params["ge_h"],
            params["ge_seed"],
        ),
        params["repetitions"],
        params["base_seed"],
    )


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    profiles = tuple(params["profiles"])
    rows: List[List[object]] = []
    per_scenario = results.groups(params["repetitions"])
    for profile in profiles:
        for mode in (ServerMode.WFC, ServerMode.IACK):
            group = next(per_scenario)
            ttfb = median([r.response_ttfb_ms for r in group])
            complete = [r for r in group if r.completed]
            done = median(
                [r.client_stats.relative(r.client_stats.response_complete_ms)
                 for r in complete]
            )
            probes = median([float(r.client_stats.probes_sent) for r in group])
            spurious = sum(
                r.client_stats.spurious_retransmissions for r in group
            )
            rows.append(
                [
                    profile,
                    mode.name,
                    None if ttfb is None else round(ttfb, 1),
                    None if done is None else round(done, 1),
                    probes,
                    spurious,
                    f"{len(complete)}/{len(group)}",
                ]
            )
    return ExperimentResult(
        experiment_id="lab_ge",
        title=(
            f"Recovery lab: 10KB @{params['rtt_ms']:g}ms RTT through "
            f"Gilbert-Elliott loss (p={params['ge_p']:g}, r={params['ge_r']:g}, "
            f"h={params['ge_h']:g}), loss-detector sweep"
        ),
        headers=[
            "profile",
            "mode",
            "TTFB median",
            "complete median",
            "client probes median",
            "spurious rtx",
            "completed",
        ],
        rows=rows,
        paper_reference={
            "baseline": "Figure 2 / §3 methodology",
            "expectation": (
                "packet-only detection leans on PTO probes for burst tails; "
                "the RFC 9002 combination recovers fastest"
            ),
        },
    )


SPEC = register(
    ExperimentSpec(
        id="lab_ge",
        title="Recovery lab: bursty (Gilbert-Elliott) loss × loss detector",
        paper="§3 methodology (extension)",
        kind=KIND_MATRIX,
        artifact_level=ArtifactLevel.STATS,
        cells=cells,
        aggregate=aggregate,
        defaults={
            "client": CLIENT,
            "repetitions": 20,
            "rtt_ms": RTT_MS,
            "profiles": PROFILES,
            "ge_p": GE_P,
            "ge_r": GE_R,
            "ge_h": GE_H,
            "ge_seed": 1,
            "base_seed": 0,
        },
        smoke={"repetitions": 2},
    )
)
