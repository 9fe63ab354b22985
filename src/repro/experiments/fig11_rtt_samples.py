"""Figure 11: RTT samples available vs exposed, 10 MB at 100 ms RTT.

"Number of exposed RTT samples and newly acknowledging ACKs for 10 MB
file transfer at 100 ms RTT, WFC. Due to different use of
ACK-eliciting packets ... implementations vary in the amount of RTT
samples they can obtain. They also expose different shares of the
recovery:metric updates" — aioquic, go-x-net, mvfst, and quiche
expose the maximum; neqo, ngtcp2, picoquic, and quic-go a smaller
fraction.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.experiments.common import ExperimentResult, CLIENT_ORDER
from repro.experiments.registry import register
from repro.experiments.spec import (
    CellResults,
    ExperimentSpec,
    KIND_MATRIX,
    Params,
    expand_cells,
)
from repro.interop.runner import Scenario, SIZE_10MB
from repro.qlog.analysis import count_metric_updates, count_new_ack_packets
from repro.quic.server import ServerMode
from repro.runtime import ArtifactLevel, Cell, Source

RTT_MS = 100.0

#: Full-exposure implementations per Appendix E.
FULL_EXPOSURE = {"aioquic", "go-x-net", "mvfst", "quiche"}


def rtt_sample_counts(result) -> Tuple[int, int]:
    """The spec's ``observe``: ``(exposed metric updates, packets with
    new ACKs)`` of one connection's client qlog."""
    events = result.read(Source.CLIENT_QLOG)
    return count_metric_updates(events), count_new_ack_packets(events)


def scenarios(http: str, rtt_ms: float, response_size: int) -> List[Scenario]:
    return [
        Scenario(
            client=client,
            mode=ServerMode.WFC,
            http=http,
            rtt_ms=rtt_ms,
            response_size=response_size,
            timeout_ms=600_000.0,
        )
        for client in CLIENT_ORDER
    ]


def cells(params: Params) -> List[Cell]:
    return expand_cells(
        scenarios(params["http"], params["rtt_ms"], params["response_size"]),
        params["repetitions"],
        params["base_seed"],
    )


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    per_scenario = results.groups(params["repetitions"])
    rows: List[List[object]] = []
    for client in CLIENT_ORDER:
        metric_counts, ack_counts = zip(*next(per_scenario))
        metric_avg = sum(metric_counts) / len(metric_counts)
        ack_avg = sum(ack_counts) / len(ack_counts)
        rows.append(
            [
                client,
                round(ack_avg, 1),
                round(metric_avg, 1),
                round(metric_avg / ack_avg, 2) if ack_avg else None,
                "full" if client in FULL_EXPOSURE else "partial",
            ]
        )
    return ExperimentResult(
        experiment_id="fig11",
        title=(
            "RTT samples: packets with new ACKs vs exposed metric "
            f"updates ({params['response_size'] // (1024 * 1024)}MB "
            f"@{params['rtt_ms']:.0f}ms, WFC)"
        ),
        headers=[
            "client", "packets with new ACKs", "metric updates",
            "exposed share", "paper exposure",
        ],
        rows=rows,
        paper_reference={
            "full_exposure": sorted(FULL_EXPOSURE),
            "partial_exposure": sorted(set(CLIENT_ORDER) - FULL_EXPOSURE),
        },
    )


SPEC = register(
    ExperimentSpec(
        id="fig11",
        title="RTT samples available vs exposed (qlog metric updates)",
        paper="Figure 11",
        kind=KIND_MATRIX,
        artifact_level=ArtifactLevel.TRACE,
        cells=cells,
        aggregate=aggregate,
        observe=rtt_sample_counts,
        reads=(Source.CLIENT_QLOG,),
        defaults={
            "http": "h1",
            "repetitions": 3,
            "rtt_ms": RTT_MS,
            "response_size": SIZE_10MB,
            "base_seed": 0,
        },
        smoke={"repetitions": 1, "response_size": 512 * 1024},
    )
)
