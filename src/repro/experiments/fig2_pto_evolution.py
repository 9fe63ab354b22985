"""Figure 2: calculated evolution of the Probe Timeout.

"Calculated evolution of the Probe Timeout (PTO) assuming that all
subsequent packets arrive exactly after one RTT and the instant ACK
is delivered 4 ms earlier. The instant ACK leads to a PTO improvement
of 3 x Δt."
"""

from __future__ import annotations

from typing import List

from repro.core.pto_model import PtoModel
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import register
from repro.experiments.spec import (
    CellResults,
    ExperimentSpec,
    KIND_MODEL,
    Params,
)
from repro.runtime import ArtifactLevel, Cell

RTTS_MS = (9.0, 25.0)
DELTA_T_MS = 4.0
N_SAMPLES = 50


def cells(params: Params) -> List[Cell]:
    return []


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    n_samples = params["n_samples"]
    model = PtoModel()
    curves = model.figure2(RTTS_MS, DELTA_T_MS, n_samples)
    rows = []
    for rtt in RTTS_MS:
        wfc = curves[rtt]["WFC"]
        iack = curves[rtt]["IACK"]
        rows.append(
            [
                f"{rtt:.0f} ms",
                round(wfc.first_pto_ms, 2),
                round(iack.first_pto_ms, 2),
                round(wfc.first_pto_ms - iack.first_pto_ms, 2),
                wfc.convergence_index(),
                round(wfc.pto_ms[-1], 2),
            ]
        )
    return ExperimentResult(
        experiment_id="fig2",
        title=(
            f"PTO evolution, instant ACK delivered {DELTA_T_MS:.0f} ms "
            f"earlier, {n_samples} ACKs"
        ),
        headers=[
            "RTT",
            "first PTO WFC [ms]",
            "first PTO IACK [ms]",
            "improvement [ms]",
            "WFC converged at ACK#",
            "final PTO [ms]",
        ],
        rows=rows,
        paper_reference={
            "first_pto_improvement_ms": 3.0 * DELTA_T_MS,
            "note": "The instant ACK leads to a PTO improvement of 3 x Δt",
        },
        extra={"curves": curves},
    )


SPEC = register(
    ExperimentSpec(
        id="fig2",
        title="Calculated evolution of the Probe Timeout",
        paper="Figure 2",
        kind=KIND_MODEL,
        artifact_level=ArtifactLevel.STATS,
        cells=cells,
        aggregate=aggregate,
        defaults={"n_samples": N_SAMPLES},
        smoke={"n_samples": 10},
    )
)
