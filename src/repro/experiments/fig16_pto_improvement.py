"""Figure 16: first-PTO improvement of IACK over WFC across RTTs.

"Improvement of the first PTO, based on recovery metric updates in
Qlog. The variance is calculated from the logged packet receptions,
if it is not provided by the implementation ... Implementations
exhibit similar PTO improvements across all RTTs" — the paper reports
median improvements between 7 ms and 24.7 ms (§4.1).
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.stats import median
from repro.core.pto_calc import PtoCalculator
from repro.experiments.common import ExperimentResult, CLIENT_ORDER
from repro.experiments.registry import register
from repro.experiments.spec import (
    CellResults,
    ExperimentSpec,
    KIND_MATRIX,
    Params,
    expand_cells,
)
from repro.interop.runner import Scenario, SIZE_10KB
from repro.qlog.analysis import first_pto_from_qlog
from repro.qlog.events import MetricsUpdated
from repro.quic.server import ServerMode
from repro.runtime import ArtifactLevel, Cell, Source

RTTS_MS = (1.0, 9.0, 20.0, 50.0, 100.0, 200.0, 300.0)


def _first_pto(result) -> Optional[float]:
    """The spec's ``observe``: first PTO from the qlog, falling back to
    the packet-event reconstruction when metrics are unavailable
    (Appendix E)."""
    events = result.read(Source.CLIENT_QLOG)
    value = first_pto_from_qlog(events)
    if value is not None:
        return value
    return PtoCalculator().first_pto(events)


def _metrics_updated(event) -> bool:
    """First metrics update.

    The spec's ``answered``: ``first_pto_from_qlog`` reads the first
    ``recovery:metrics_updated`` event, and every one logged carries a
    smoothed RTT. A cell that logs none falls back to the whole qlog,
    and so never answers and runs whole."""
    return type(event) is MetricsUpdated


def scenarios(http: str, rtts_ms) -> List[Scenario]:
    return [
        Scenario(
            client=client,
            mode=mode,
            http="h1" if client == "go-x-net" else http,
            rtt_ms=rtt,
            response_size=SIZE_10KB,
        )
        for client in CLIENT_ORDER
        for rtt in rtts_ms
        for mode in (ServerMode.WFC, ServerMode.IACK)
    ]


def cells(params: Params) -> List[Cell]:
    return expand_cells(
        scenarios(params["http"], params["rtts_ms"]),
        params["repetitions"],
        params["base_seed"],
    )


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    per_scenario = results.groups(params["repetitions"])
    rows: List[List[object]] = []
    for client in CLIENT_ORDER:
        for rtt in params["rtts_ms"]:
            ptos = {}
            for mode in (ServerMode.WFC, ServerMode.IACK):
                group = next(per_scenario)
                ptos[mode.name] = median(group)  # one observed first PTO per cell
            wfc, iack = ptos["WFC"], ptos["IACK"]
            improvement = None
            if wfc is not None and iack is not None:
                improvement = round(wfc - iack, 1)
            rows.append(
                [
                    client,
                    rtt,
                    None if wfc is None else round(wfc, 1),
                    None if iack is None else round(iack, 1),
                    improvement,
                ]
            )
    return ExperimentResult(
        experiment_id="fig16",
        title="First-PTO improvement (qlog-derived) across RTTs",
        headers=[
            "client", "RTT [ms]", "first PTO WFC [ms]",
            "first PTO IACK [ms]", "improvement [ms]",
        ],
        rows=rows,
        paper_reference={
            "median_improvement_range_ms": (7.0, 24.7),
            "note": "improvement roughly constant across RTTs per client",
        },
    )


SPEC = register(
    ExperimentSpec(
        id="fig16",
        title="First-PTO improvement of IACK over WFC across RTTs",
        paper="Figure 16",
        kind=KIND_MATRIX,
        artifact_level=ArtifactLevel.TRACE,
        cells=cells,
        aggregate=aggregate,
        observe=_first_pto,
        reads=(Source.CLIENT_QLOG,),
        answered=_metrics_updated,
        defaults={
            "http": "h1",
            "repetitions": 10,
            "rtts_ms": RTTS_MS,
            "base_seed": 0,
        },
        smoke={"repetitions": 1, "rtts_ms": (9.0, 100.0)},
    )
)
