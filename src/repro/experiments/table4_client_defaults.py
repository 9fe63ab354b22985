"""Table 4: default PTO and second-client-flight coalescing.

"Initial PTO and UDP datagrams comprising the second client flight.
Implementations chose lower initial PTOs than the recommended value
of 1 s to improve recovery from packet loss. Due to packet coalescence
the second client flight is sent in different UDP datagrams."

The experiment both dumps the registry and *verifies it in emulation*:
it runs each client through a lossless handshake and checks that the
observed second-flight datagram indices match the declared mapping.
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
from repro.impls.registry import client_profile
from repro.interop.runner import Scenario
from repro.quic.packet import PacketType
from repro.quic.server import ServerMode
from repro.runtime import ArtifactLevel, Cell, Source

PAPER_TABLE4 = {
    "aioquic": (200, (2, 3, 4)),
    "go-x-net": (999, (2, 3, 4)),
    "mvfst": (100, (2, 3, 4)),
    "neqo": (300, (2, 3)),
    "ngtcp2": (300, (2, 3, 4)),
    "picoquic": (250, (2, 3, 4, 5)),
    "quic-go": (200, (2, 3, 4)),
    "quiche": (999, (2,)),
}


def observed_second_flight_indices(result) -> Tuple[int, ...]:
    """The spec's ``observe``: datagram indices (1-based, client-sent)
    carrying the second flight — everything from the first
    post-ClientHello datagram through the one with the client
    Finished / request."""
    client_records = result.read(Source.CLIENT_TO_SERVER)
    indices: List[int] = []
    for record in client_records:
        dgram = record.payload
        if dgram is None:
            continue
        is_flight2 = any(
            p.packet_type in (PacketType.HANDSHAKE, PacketType.ONE_RTT)
            or (p.packet_type is PacketType.INITIAL and not p.ack_eliciting)
            for p in dgram.packets
        ) and record.index > 1
        if is_flight2:
            indices.append(record.index)
        if carries_fin(record):
            break
    return tuple(indices)


def carries_fin(record) -> bool:
    """Client FIN.

    The spec's ``answered``: the record's datagram carries a stream
    FIN, where :func:`observed_second_flight_indices` stops reading."""
    dgram = record.payload
    return dgram is not None and any(f.fin for p in dgram.packets for f in p.stream_frames())


def scenarios(rtt_ms: float) -> List[Scenario]:
    return [
        Scenario(client=client, mode=ServerMode.WFC, http="h1", rtt_ms=rtt_ms)
        for client in CLIENT_ORDER
    ]


def cells(params: Params) -> List[Cell]:
    return expand_cells(
        scenarios(params["rtt_ms"]), params["repetitions"], params["base_seed"]
    )


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    per_scenario = results.groups(params["repetitions"])
    rows: List[List[object]] = []
    for client in CLIENT_ORDER:
        profile = client_profile(client)
        observed_counts = {len(indices) for indices in next(per_scenario) if indices}
        paper_pto, paper_indices = PAPER_TABLE4[client]
        declared = profile.second_flight_indices
        rows.append(
            [
                client,
                int(profile.default_pto_ms),
                paper_pto,
                ",".join(str(i) for i in declared),
                ",".join(str(i) for i in paper_indices),
                sorted(observed_counts),
            ]
        )
    return ExperimentResult(
        experiment_id="table4",
        title="Default PTO and second-client-flight datagrams",
        headers=[
            "client", "default PTO [ms]", "paper PTO",
            "flight datagrams", "paper datagrams", "observed counts",
        ],
        rows=rows,
        paper_reference={"table4": PAPER_TABLE4},
    )


SPEC = register(
    ExperimentSpec(
        id="table4",
        title="Default PTO and second-client-flight datagram coalescing",
        paper="Table 4",
        kind=KIND_MATRIX,
        artifact_level=ArtifactLevel.TRACE,
        cells=cells,
        aggregate=aggregate,
        observe=observed_second_flight_indices,
        reads=(Source.CLIENT_TO_SERVER,),
        answered=carries_fin,
        defaults={"repetitions": 5, "rtt_ms": 9.0, "base_seed": 0},
        smoke={"repetitions": 1},
    )
)
