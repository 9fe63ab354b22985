"""Figure 15: Cloudflare request→response time, four locations.

"Time between request and response from Cloudflare servers from the
measurement locations with 50 % percentile interval. At all locations
the coalesced ACK–SH is faster than the separated ServerHello. The
gaps in the measurements from Hong Kong are caused by a
misconfiguration of our nodes." Median IACK precedes the SH by
2.1 ms (Sao Paulo, Hamburg), 2.4 ms (Los Angeles), 2.6 ms (Hong Kong).
"""

from __future__ import annotations

from typing import List, Optional

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
from repro.wild.vantage import VANTAGE_POINTS

PAPER_GAPS_MS = {
    "Sao Paulo": 2.1,
    "Hamburg": 2.1,
    "Los Angeles": 2.4,
    "Hong Kong": 2.6,
}

#: Hong Kong maintenance gaps: two half-day outages, as minute ranges.
HONG_KONG_OUTAGES = (
    (2 * 24 * 60, 2 * 24 * 60 + 12 * 60),
    (5 * 24 * 60, 5 * 24 * 60 + 8 * 60),
)


def cells(params: Params) -> List[Cell]:
    return study_cells(params, sorted(VANTAGE_POINTS), {"Hong Kong": HONG_KONG_OUTAGES})


def observe(outcome: PassOutcome) -> List[Optional[object]]:
    """One location's row, less its name and paper value: separate-SH,
    coalesced and gap medians, the gap's 50 % interval, hours with data."""
    samples = outcome.records
    separate_sh = [s.sh_latency_ms for s in samples if s.kind == "SH"]
    coalesced = [s.sh_latency_ms for s in samples if s.kind == "ACK,SH"]
    gaps = [
        s.sh_latency_ms - s.ack_latency_ms
        for s in samples
        if s.kind == "SH" and s.sh_latency_ms is not None and s.ack_latency_ms is not None
    ]
    interval = percentile_interval(gaps, 50.0)

    def rounded_median(values: List[Optional[float]]) -> Optional[float]:
        med = median(values)
        return None if med is None else round(med, 2)

    return [
        rounded_median(separate_sh),
        rounded_median(coalesced),
        rounded_median(gaps),
        None if interval is None else f"[{interval[0]:.2f}, {interval[1]:.2f}]",
        len({s.hour for s in samples}),
    ]


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    days = params["days"]
    rows: List[List[object]] = []
    for name, (separate, coalesced, gap, interval, hours) in zip(sorted(VANTAGE_POINTS), results):
        rows.append([name, separate, coalesced, gap, PAPER_GAPS_MS.get(name), interval, hours])
    return ExperimentResult(
        experiment_id="fig15",
        title=f"Cloudflare latency per location, {days} days",
        headers=[
            "location", "separate SH median [ms]", "coalesced median [ms]",
            "IACK->SH gap [ms]", "paper gap [ms]", "gap 50% interval",
            "hours with data",
        ],
        rows=rows,
        paper_reference={
            "gaps_ms": PAPER_GAPS_MS,
            "note": "coalesced faster everywhere; Hong Kong shows gaps",
        },
    )


SPEC = register(
    ExperimentSpec(
        id="fig15",
        title="Cloudflare request→response time per location",
        paper="Figure 15",
        kind=KIND_WILD,
        artifact_level=ArtifactLevel.STATS,
        cells=cells,
        aggregate=aggregate,
        observe=observe,
        defaults={"days": 7, "seed": 0},
        smoke={"days": 1},
    )
)
