"""Table 3: first acknowledgment delay per server implementation.

"Delay of the first acknowledgment received from server in the
Initial and Handshake packet number space" — measured over three
repetitions against 16 server implementations with a quic-go client.
msquic sends no Initial/Handshake ACKs; 11 implementations send no
Handshake-space acknowledgment.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import register
from repro.experiments.spec import (
    CellResults,
    ExperimentSpec,
    KIND_MODEL,
    Params,
)
from repro.http import semantics_for
from repro.http.base import RequestSpec
from repro.impls.registry import SERVER_PROFILES, client_profile
from repro.qlog.events import PacketEvent
from repro.quic.client import ClientConnection
from repro.quic.server import ServerConfig, ServerConnection, ServerMode
from repro.runtime import ArtifactLevel, Cell
from repro.sim.engine import EventLoop
from repro.sim.network import Network

#: Paper Table 3 (repetition 1), for side-by-side comparison.
PAPER_INITIAL_MS = {
    "aioquic": 3.3, "go-x-net": 0.0, "haproxy": 1.0, "kwik": 0.0,
    "lsquic": 1.2, "msquic": None, "mvfst": 0.8, "neqo": 0.0,
    "nginx": 0.0, "ngtcp2": 0.0, "picoquic": 0.8, "quic-go": 0.0,
    "quiche": 1.4, "quinn": 0.4, "s2n-quic": 14.0, "xquic": 1.3,
}
PAPER_HANDSHAKE_MS = {
    "haproxy": 0.0, "lsquic": 0.2, "mvfst": 0.2, "neqo": 0.0, "xquic": 0.5,
}


def cells(params: Params) -> List[Cell]:
    # This experiment drives 16 *server* implementations against one
    # client on a bespoke loop; it has no (Scenario, seed) cells the
    # matrix planner could dedupe.
    return []


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    repetitions, rtt_ms = params["repetitions"], params["rtt_ms"]
    rows: List[List[object]] = []
    for name in sorted(SERVER_PROFILES):
        profile = SERVER_PROFILES[name]
        initial_delays: List[Optional[float]] = []
        handshake_delays: List[Optional[float]] = []
        for rep in range(repetitions):
            loop = EventLoop()
            network = Network.for_rtt(loop, rtt_ms=rtt_ms)
            client = ClientConnection(
                loop, client_profile("quic-go"), semantics_for("h1"),
                request=RequestSpec(response_size=1024),
                rng=random.Random(f"t3c:{name}:{rep}"),
            )
            server = ServerConnection(
                loop, profile, semantics_for("h1"),
                config=ServerConfig(mode=ServerMode.WFC),
                rng=random.Random(f"t3s:{name}:{rep}"),
            )
            with network.connect(client, server):
                client.start()
                loop.run(until=10_000.0)
            initial_delays.append(
                _observed_ack_delay(client, "initial")
            )
            handshake_delays.append(
                _observed_ack_delay(client, "handshake")
            )
        rows.append(
            [
                name,
                _fmt_reps(initial_delays),
                PAPER_INITIAL_MS.get(name),
                _fmt_reps(handshake_delays),
                PAPER_HANDSHAKE_MS.get(name),
            ]
        )
    return ExperimentResult(
        experiment_id="table3",
        title="First ACK delay [ms] per server implementation",
        headers=[
            "server", "Initial (reps)", "paper Initial",
            "Handshake (reps)", "paper Handshake",
        ],
        rows=rows,
        paper_reference={
            "initial_ms": PAPER_INITIAL_MS,
            "handshake_ms": PAPER_HANDSHAKE_MS,
            "note": "msquic sends no Initial/Handshake ACKs",
        },
    )


def _observed_ack_delay(client: ClientConnection, space: str) -> Optional[float]:
    """First received ACK frame's delay field in a space, from the
    packets the client actually processed."""
    for event in client.qlog.events:
        if not isinstance(event, PacketEvent):
            continue
        if event.name != "packet_received" or event.space != space:
            continue
        delay = event.data.get("first_ack_delay_ms")
        if delay is not None:
            return delay
    return None


def _fmt_reps(values: List[Optional[float]]) -> str:
    return " ".join("-" if v is None else f"{v:.1f}" for v in values)


SPEC = register(
    ExperimentSpec(
        id="table3",
        title="First ACK delay per server implementation",
        paper="Table 3",
        kind=KIND_MODEL,
        artifact_level=ArtifactLevel.STATS,
        cells=cells,
        aggregate=aggregate,
        defaults={"repetitions": 3, "rtt_ms": 9.0},
        smoke={"repetitions": 1},
    )
)
