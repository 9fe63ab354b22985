"""Figure 9: Cloudflare reception latency over one week (Sao Paulo).

"Reception latency and 50 % percentile interval of ACK and SH, either
separately in sequential packets or coalesced ACK–SH from Cloudflare
in Sao Paulo, BR. SH in coalesced messages arrive faster than
separate SH." Median IACK arrives 2.1 ms before the SH in Sao Paulo;
delays are larger during local daytime.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.stats import median, percentile_interval
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import register
from repro.experiments.spec import (
    CellResults,
    ExperimentSpec,
    KIND_WILD,
    Params,
    study_cells,
)
from repro.runtime import ArtifactLevel, Cell
from repro.wild.passes import PassOutcome


def cells(params: Params) -> List[Cell]:
    return study_cells(params, [params["vantage_name"]])


def observe(outcome: PassOutcome) -> Dict[str, Any]:
    """The figure's series, reduced to table rows where the samples are."""
    samples = outcome.records
    ack_latencies = [
        s.ack_latency_ms for s in samples if s.kind in ("ACK", "SH") and s.ack_latency_ms
    ]
    separate_sh = [s.sh_latency_ms for s in samples if s.kind == "SH" and s.sh_latency_ms]
    coalesced = [
        s.sh_latency_ms for s in samples if s.kind == "ACK,SH" and s.sh_latency_ms
    ]
    gaps = [
        s.sh_latency_ms - s.ack_latency_ms
        for s in samples
        if s.kind == "SH" and s.sh_latency_ms is not None and s.ack_latency_ms is not None
    ]
    day_gaps = [
        s.sh_latency_ms - s.ack_latency_ms
        for s in samples
        if s.kind == "SH"
        and s.sh_latency_ms is not None
        and s.ack_latency_ms is not None
        and 10 <= s.local_hour_of_day < 20
    ]
    night_gaps = [
        s.sh_latency_ms - s.ack_latency_ms
        for s in samples
        if s.kind == "SH"
        and s.sh_latency_ms is not None
        and s.ack_latency_ms is not None
        and (s.local_hour_of_day < 6 or s.local_hour_of_day >= 22)
    ]
    rows: List[List[object]] = []
    for label, values in (
        ("ACK", ack_latencies),
        ("SH (separate)", separate_sh),
        ("ACK,SH (coalesced)", coalesced),
    ):
        med = median(values)
        interval = percentile_interval(values, 50.0)
        rows.append(
            [
                label,
                len(values),
                None if med is None else round(med, 2),
                None if interval is None else f"[{interval[0]:.2f}, {interval[1]:.2f}]",
            ]
        )
    rows.append(["IACK->SH gap", len(gaps), round(median(gaps) or 0.0, 2), None])
    rows.append(["gap (daytime)", len(day_gaps), round(median(day_gaps) or 0.0, 2), None])
    rows.append(["gap (night)", len(night_gaps), round(median(night_gaps) or 0.0, 2), None])
    coalesced_med = median(coalesced)
    separate_med = median(separate_sh)
    return {
        "rows": rows,
        "coalesced_faster": (
            coalesced_med is not None and separate_med is not None and coalesced_med < separate_med
        ),
        "samples": len(samples),
    }


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    vantage_name, days = params["vantage_name"], params["days"]
    (study,) = results
    return ExperimentResult(
        experiment_id="fig9",
        title=f"Cloudflare reception latency, {vantage_name}, {days} days",
        headers=["series", "n", "median [ms]", "50% interval"],
        rows=study["rows"],
        paper_reference={
            "iack_to_sh_gap_ms": 2.1,
            "note": (
                "coalesced SH faster than separate SH; daytime gaps "
                "exceed nighttime gaps"
            ),
        },
        extra={key: study[key] for key in ("coalesced_faster", "samples")},
    )


SPEC = register(
    ExperimentSpec(
        id="fig9",
        title="Cloudflare reception latency over one week",
        paper="Figure 9",
        kind=KIND_WILD,
        artifact_level=ArtifactLevel.STATS,
        cells=cells,
        aggregate=aggregate,
        observe=observe,
        defaults={"vantage_name": "Sao Paulo", "days": 7, "seed": 0},
        smoke={"days": 1},
    )
)
