"""Figure 15: Cloudflare request→response time, four locations.

"Time between request and response from Cloudflare servers from the
measurement locations with 50 % percentile interval. At all locations
the coalesced ACK–SH is faster than the separated ServerHello. The
gaps in the measurements from Hong Kong are caused by a
misconfiguration of our nodes." Median IACK precedes the SH by
2.1 ms (Sao Paulo, Hamburg), 2.4 ms (Los Angeles), 2.6 ms (Hong Kong).
"""

from __future__ import annotations

from typing import List

from repro.analysis.stats import median, percentile_interval
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import register
from repro.experiments.spec import (
    CellResults,
    ExperimentSpec,
    KIND_WILD,
    Params,
    wild_cells,
)
from repro.runtime import ArtifactLevel, parallel_map
from repro.wild.cloudflare import CloudflareLongitudinalStudy, filter_valid
from repro.wild.vantage import VANTAGE_POINTS, vantage

PAPER_GAPS_MS = {
    "Sao Paulo": 2.1,
    "Hamburg": 2.1,
    "Los Angeles": 2.4,
    "Hong Kong": 2.6,
}

#: Hong Kong maintenance gaps (two half-day outages).
HONG_KONG_OUTAGES = tuple(range(2 * 24 * 60, 2 * 24 * 60 + 12 * 60)) + tuple(
    range(5 * 24 * 60, 5 * 24 * 60 + 8 * 60)
)


def _study_vantage(vantage_name: str, days: int, seed: int):
    """One location's longitudinal study (a self-contained rng
    stream, so passes parallelize without ordering effects)."""
    study = CloudflareLongitudinalStudy(vantage(vantage_name), seed=seed)
    outages = HONG_KONG_OUTAGES if vantage_name == "Hong Kong" else None
    return filter_valid(
        study.run(minutes=days * 24 * 60, outage_minutes=outages)
    )


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    days, seed = params["days"], params["seed"]
    rows: List[List[object]] = []
    vantage_names = sorted(VANTAGE_POINTS)
    per_vantage = parallel_map(
        _study_vantage,
        [(name, days, seed) for name in vantage_names],
        workers=params["workers"],
    )
    for vantage_name, samples in zip(vantage_names, per_vantage):
        separate_sh = [s.sh_latency_ms for s in samples if s.kind == "SH"]
        coalesced = [s.sh_latency_ms for s in samples if s.kind == "ACK,SH"]
        gaps = [
            s.sh_latency_ms - s.ack_latency_ms
            for s in samples
            if s.kind == "SH"
            and s.sh_latency_ms is not None
            and s.ack_latency_ms is not None
        ]
        med_sep = median(separate_sh)
        med_coal = median(coalesced)
        med_gap = median(gaps)
        interval = percentile_interval([g for g in gaps], 50.0)
        observed_hours = len({s.hour for s in samples})
        rows.append(
            [
                vantage_name,
                None if med_sep is None else round(med_sep, 2),
                None if med_coal is None else round(med_coal, 2),
                None if med_gap is None else round(med_gap, 2),
                PAPER_GAPS_MS.get(vantage_name),
                None if interval is None else f"[{interval[0]:.2f}, {interval[1]:.2f}]",
                observed_hours,
            ]
        )
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
        cells=wild_cells,
        aggregate=aggregate,
        defaults={"days": 7, "seed": 0, "workers": 0},
        smoke={"days": 1},
    )
)
