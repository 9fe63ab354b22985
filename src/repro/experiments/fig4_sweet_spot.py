"""Figure 4: first PTO improvement and the spurious-retransmit zone.

"Spurious retransmits happen if the delay between Frontend Server and
Cert Store (Δt) is larger than the PTO set by the client. Relative to
the RTT, lower latency connections profit more from PTO improvement
with IACK."
"""

from __future__ import annotations

from typing import List

from repro.core.sweet_spot import (
    reduced_latency_zone_boundary_ms,
    sweep,
)
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import register
from repro.experiments.spec import (
    CellResults,
    ExperimentSpec,
    KIND_MODEL,
    Params,
)
from repro.runtime import ArtifactLevel, Cell

DELTA_T_VALUES_MS = (1.0, 9.0, 25.0)
RTT_VALUES_MS = tuple(float(v) for v in range(1, 101, 3))


def cells(params: Params) -> List[Cell]:
    return []


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    delta_t_values_ms = params["delta_t_values_ms"]
    points = sweep(params["rtt_values_ms"], delta_t_values_ms)
    rows = []
    for delta in delta_t_values_ms:
        series = [p for p in points if p.delta_t_ms == delta]
        spurious_boundary = None
        for p in series:
            if not p.spurious:
                spurious_boundary = p.rtt_ms
                break
        max_reduction = max(p.pto_reduction_rtt_units for p in series)
        min_reduction = min(p.pto_reduction_rtt_units for p in series)
        rows.append(
            [
                f"{delta:.0f} ms",
                round(max_reduction, 3),
                round(min_reduction, 3),
                spurious_boundary,
                round(reduced_latency_zone_boundary_ms(delta / 3.0), 2),
            ]
        )
    return ExperimentResult(
        experiment_id="fig4",
        title="First PTO reduction [RTT units] and spurious-retransmit zone",
        headers=[
            "delta_t",
            "max reduction [RTT]",
            "min reduction [RTT]",
            "first non-spurious RTT [ms]",
            "zone boundary 3xRTT=dt at RTT [ms]",
        ],
        rows=rows,
        paper_reference={
            "note": (
                "reduction = 3*dt/RTT, decreasing in RTT; spurious iff "
                "dt > 3*RTT"
            ),
        },
        extra={"points": points},
    )


SPEC = register(
    ExperimentSpec(
        id="fig4",
        title="First PTO reduction and the spurious-retransmit zone",
        paper="Figure 4",
        kind=KIND_MODEL,
        artifact_level=ArtifactLevel.STATS,
        cells=cells,
        aggregate=aggregate,
        defaults={
            "delta_t_values_ms": DELTA_T_VALUES_MS,
            "rtt_values_ms": RTT_VALUES_MS,
        },
        smoke={"rtt_values_ms": (1.0, 25.0, 100.0)},
    )
)
