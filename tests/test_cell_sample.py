"""A 512-cell sample of the simulator's state space, pinned by digest.

``tests/golden/smoke*`` pin 260 cells on the paper's own grid; this
file pins 512 more drawn by :func:`sample_cells` from a fixed-seed
generator over all eight clients x {WFC, IACK} x {h1, h3} x RTTs x
delta-t x certificate sizes x {no loss, indexed c2s/s2c drops, random,
Gilbert-Elliott} x every ``RecoveryProfile`` x ``pad_instant_ack``.
Each cell carries a SHA-256 of ``(client_stats, server_stats)`` at
stats level and of ``(trace records, both qlog event lists)`` at trace
level, so an optimisation of the hot path that moves one timestamp,
one packet number or one rng draw anywhere in that space fails here.

``tests/golden/cells-sample.json`` was captured at 3c78813 (the parent
of the PR that first optimised the per-datagram path) with::

    PYTHONPATH=src python tests/test_cell_sample.py --capture

Regenerating it is a deliberate, reviewed act like the smoke goldens:
it says the simulator's behaviour changed on purpose.

The sample found a defect the paper grid never reaches: with the large
certificate and a lost client datagram, the server could still hold an
amplification-blocked Initial datagram when the first Handshake packet
discarded the Initial space, and flushing it raised ``RuntimeError('space
INITIAL already discarded')`` (20 of the 512 cells at 3c78813, pinned
as that outcome). PR 17 fixed it — packets of a discarded space leave
the blocked queue at discard time — and regenerated exactly those 20
digests; the other 492 are the 3c78813 capture.
"""

import hashlib
import json
import random
import sys
from dataclasses import asdict, replace
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.impls.registry import CLIENT_NAMES, client_profile
from repro.interop.runner import Runner, Scenario
from repro.quic.cc import MINIMUM_WINDOW
from repro.quic.certs import LARGE_CERTIFICATE, SMALL_CERTIFICATE
from repro.quic.profiles import profile_names
from repro.quic.server import ServerMode
from repro.runtime import ArtifactLevel, Source, execute_cell
from repro.sim.loss import GilbertElliottLoss, IndexedLoss, RandomLoss

SAMPLE_PATH = Path(__file__).resolve().parent / "golden" / "cells-sample.json"
SAMPLE_SIZE = 512
GENERATOR_SEED = 20260930

RTTS_MS = (1.0, 9.0, 20.0, 50.0, 100.0, 300.0)
DELTA_TS_MS = (0.0, 5.0, 25.0, 100.0, 200.0)
RESPONSE_SIZES = (1024, 10 * 1024, 64 * 1024)
LOSS_KINDS = ("none", "c2s", "s2c", "both", "random", "ge")


def draw_loss(rng: random.Random, kind: str):
    """``(client_to_server_loss, server_to_client_loss)`` for a kind."""

    def indexed():
        return IndexedLoss(rng.sample(range(1, 7), rng.randint(1, 2)))

    if kind == "c2s":
        return indexed(), None
    if kind == "s2c":
        return None, indexed()
    if kind == "both":
        return indexed(), indexed()
    if kind == "random":
        rate = rng.choice((0.02, 0.1, 0.25))
        return RandomLoss(rate, seed=rng.randrange(1000)), RandomLoss(
            rate, seed=rng.randrange(1000)
        )
    if kind == "ge":
        return None, GilbertElliottLoss(
            p=rng.choice((0.05, 0.2)), r=rng.choice((0.3, 0.6)), h=rng.choice((0.0, 0.5)),
            seed=rng.randrange(1000),
        )
    return None, None


def draw_cell(rng: random.Random):
    """One ``(scenario, seed)`` drawn from ``rng``."""
    client = rng.choice(CLIENT_NAMES)
    http = rng.choice(("h1", "h3"))
    if http == "h3" and not client_profile(client).supports_http3:
        http = "h1"
    c2s, s2c = draw_loss(rng, rng.choice(LOSS_KINDS))
    scenario = Scenario(
        client=client,
        mode=rng.choice((ServerMode.WFC, ServerMode.IACK)),
        http=http,
        rtt_ms=rng.choice(RTTS_MS),
        delta_t_ms=rng.choice(DELTA_TS_MS),
        certificate=rng.choice((SMALL_CERTIFICATE, LARGE_CERTIFICATE)),
        response_size=rng.choice(RESPONSE_SIZES),
        client_to_server_loss=c2s,
        server_to_client_loss=s2c,
        pad_instant_ack=rng.random() < 0.25,
        recovery_profile=rng.choice(profile_names()),
    )
    return scenario, rng.randrange(1000)


def sample_cells(count: int = SAMPLE_SIZE):
    rng = random.Random(GENERATOR_SEED)
    return [draw_cell(rng) for _ in range(count)]


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _packet(packet):
    return [
        packet.packet_type.value,
        packet.packet_number,
        packet.wire_size(),
        [repr(frame) for frame in packet.frames],
    ]


def run_cell(runner: Runner, scenario: Scenario, seed: int, keep: bool):
    return runner.run_once(scenario, seed=seed, capture_trace=keep, record_qlog=keep)


def cell_digests(runner: Runner, scenario: Scenario, seed: int):
    """``(stats digest, trace digest)`` of one cell."""
    slim = run_cell(runner, scenario, seed, keep=False)
    full = run_cell(runner, scenario, seed, keep=True)
    stats = _sha([asdict(slim.client_stats), asdict(slim.server_stats), slim.duration_ms])
    trace = _sha(
        [
            [
                [r.time_ms, r.link, r.index, r.size, r.dropped, r.payload.sender]
                + [_packet(p) for p in r.payload.packets]
                for r in full.tracer.records
            ],
            [e.to_dict() for e in full.client_qlog.events],
            [e.to_dict() for e in full.server_qlog.events],
        ]
    )
    return stats, trace


def capture():
    runner = Runner()
    cells = []
    for scenario, seed in sample_cells():
        stats, trace = cell_digests(runner, scenario, seed)
        cells.append(
            {"cell": f"{scenario.describe()} seed={seed}", "stats": stats, "trace": trace}
        )
    return {"generator_seed": GENERATOR_SEED, "cells": cells}


def test_sample_cells_match_the_committed_digests():
    golden = json.loads(SAMPLE_PATH.read_text())
    assert golden["generator_seed"] == GENERATOR_SEED
    assert len(golden["cells"]) == SAMPLE_SIZE
    runner = Runner()
    diverged = []
    for (scenario, seed), want in zip(sample_cells(), golden["cells"]):
        assert f"{scenario.describe()} seed={seed}" == want["cell"]
        stats, trace = cell_digests(runner, scenario, seed)
        if (stats, trace) != (want["stats"], want["trace"]):
            level = "stats" if stats != want["stats"] else "trace"
            diverged.append(f"{want['cell']} ({level})")
    assert not diverged, f"{len(diverged)} cells diverged, first: {diverged[:3]}"


def test_sample_spans_every_axis():
    cells = [scenario for scenario, _seed in sample_cells()]
    assert {s.client for s in cells} == set(CLIENT_NAMES)
    assert {s.recovery_profile for s in cells} == set(profile_names())
    assert {s.mode for s in cells} == set(ServerMode)
    assert {s.http for s in cells} == {"h1", "h3"}
    assert {type(s.server_to_client_loss) for s in cells} == {
        type(None), IndexedLoss, RandomLoss, GilbertElliottLoss,
    }
    assert {s.pad_instant_ack for s in cells} == {True, False}


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_retention_never_perturbs_behaviour_and_cc_stays_in_bounds(draw_seed):
    """For any generated cell: the stats-level run equals the
    trace-level run's ``ConnectionStats`` (retention is observation
    only), and both congestion controllers leave with
    ``bytes_in_flight >= 0`` and ``cwnd >= MINIMUM_WINDOW``."""
    scenario, seed = draw_cell(random.Random(draw_seed))
    runner = Runner()
    slim = run_cell(runner, scenario, seed, keep=False)
    full = run_cell(runner, scenario, seed, keep=True)
    assert slim.client_stats == full.client_stats
    assert slim.server_stats == full.server_stats
    assert slim.duration_ms == full.duration_ms
    for read in (lambda: slim.tracer.records, lambda: slim.client_qlog.events):
        with pytest.raises(ValueError, match="was not retained"):  # absent, not empty
            read()
    for endpoint in (slim.client, slim.server, full.client, full.server):
        assert endpoint.cc.bytes_in_flight >= 0
        assert endpoint.cc.cwnd >= MINIMUM_WINDOW


SOURCE_SUBSETS = [
    frozenset(subset) for size in range(5) for subset in combinations(Source, size)
]


@pytest.mark.parametrize("profile", profile_names())
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_every_subset_of_sources_retains_exactly_itself_and_perturbs_nothing(profile, draw_seed):
    """For any generated cell under every recovery profile, and each of
    the 16 subsets of the four sources: stats and duration equal the
    stats-level run's bit for bit; a retained source equals, element
    for element, the same source of a retain-everything run; an
    unretained one is absent (``None`` / raises), not empty."""
    scenario, seed = draw_cell(random.Random(draw_seed))
    scenario = replace(scenario, recovery_profile=profile)
    runner = Runner()
    plain = execute_cell(scenario, seed, ArtifactLevel.STATS, runner)
    everything = execute_cell(scenario, seed, ArtifactLevel.TRACE, runner)
    assert everything.result is None  # all four: plain data, as it always was
    for sources in SOURCE_SUBSETS:
        kept = execute_cell(scenario, seed, ArtifactLevel.TRACE, runner, sources)
        assert (kept.client_stats, kept.server_stats, kept.duration_ms) == (
            plain.client_stats, plain.server_stats, plain.duration_ms
        )
        for source in Source:
            if source in sources:
                assert kept.read(source) == everything.read(source)
            else:
                with pytest.raises(ValueError, match=f"the {source.describe()} was not retained"):
                    kept.read(source)
        qlogs = (kept.client_qlog_events, kept.server_qlog_events)
        assert [events is not None for events in qlogs] == [
            Source.CLIENT_QLOG in sources, Source.SERVER_QLOG in sources
        ]
        both_links = {Source.CLIENT_TO_SERVER, Source.SERVER_TO_CLIENT} <= sources
        assert (kept.trace_records is not None) == both_links
        if both_links:
            assert kept.trace_records == everything.trace_records


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cell_sample.py --capture")
    SAMPLE_PATH.write_text(json.dumps(capture(), indent=1) + "\n")
    print(f"wrote {SAMPLE_PATH}")
