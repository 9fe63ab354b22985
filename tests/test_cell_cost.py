"""The cost of a cell, as counts — a CI gate that cannot flap.

``benchmarks/e2e`` times cells on a noisy box; this file pins what the
timings are made of. It counts profiler calls for the two probe
anchors exactly as ``interop.py_calls.*`` does (quic-go / IACK / 9 ms
at 10 KB and 1 MiB, seed 0, stats level, a warm ``Runner`` that last
ran another scenario) and holds them under ceilings 5 % above what
the PR that cut them achieved (4,073 and 221,647 before it), plus the
structural counts that explain the figure. The counts are exact for a
given interpreter; the ceilings were set on CPython 3.11, and later
versions inline comprehensions and count fewer calls, never more.

An observed cell is held the same way: it retains the sources its
observers declared and constructs nothing for the others — no
``TraceRecord`` in a cell nobody reads the capture of, no
``PacketEvent`` for a qlog nobody reads — and the fig11 cell of
``bulk_transfer`` stays under a call ceiling of its own. A fig16 and a
table4 cell, which end once their observers are answered, stay under
ceilings of theirs and process fewer loop events than the whole run.

A finished cell leaves nothing for the cyclic collector: every planned
smoke cell, and table3's bespoke loop, is freed by refcounting as soon
as its artifacts are taken.
"""

import cProfile
import gc
import pstats
from collections import Counter
from dataclasses import replace

import pytest

from repro.experiments.registry import REGISTRY, get_spec
from repro.interop.runner import Runner, Scenario
from repro.qlog import writer
from repro.qlog.events import PacketEvent
from repro.quic import coalescing, connection, packet, recovery
from repro.quic.frames import PingFrame
from repro.quic.packet import Space
from repro.quic.server import ServerMode
from repro.runtime import ArtifactLevel, SuiteRunner, execute_cell
from repro.runtime.workloop import LEVEL
from repro.sim import trace
from repro.sim.trace import TraceRecord

ANCHOR = Scenario(client="quic-go", mode=ServerMode.IACK, rtt_ms=9.0)
BULK = replace(ANCHOR, response_size=1 << 20)

#: Achieved by PR 16: 2,093 and 104,398. Ceiling = achieved x 1.05.
CALL_CEILINGS = {"handshake": (ANCHOR, 2_197), "bulk": (BULK, 109_617)}


def run_stats(runner: Runner, scenario: Scenario):
    return runner.run_once(scenario, seed=0, capture_trace=False, record_qlog=False)


@pytest.mark.parametrize("anchor", sorted(CALL_CEILINGS))
def test_profiler_calls_per_cell_stay_under_the_ceiling(anchor):
    scenario, ceiling = CALL_CEILINGS[anchor]
    runner = Runner()
    run_stats(runner, replace(scenario, rtt_ms=20.0))  # warm, on another scenario
    profiler = cProfile.Profile()
    profiler.enable()
    run_stats(runner, scenario)
    profiler.disable()
    calls = pstats.Stats(profiler).total_calls
    assert calls <= ceiling, (
        f"{anchor}: {calls} profiler calls per cell, ceiling {ceiling} — the "
        "per-datagram path got more expensive (see PERFORMANCE.md, Cost of a cell)"
    )


@pytest.fixture()
def counted(monkeypatch):
    """Counts of the calls the structural bounds are stated in."""
    counts = Counter()

    def count(owner, name, key, when=lambda self: True):
        original = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            if when(self):
                counts[key] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(coalescing.Datagram, "__post_init__", "datagrams_built")
    count(packet.Packet, "__post_init__", "packets_built")
    count(packet.Packet, "wire_size", "wire_size_calls")
    count(recovery.Recovery, "loss_detection_deadline", "deadline_evaluations")
    count(connection.Endpoint, "_process_datagram", "receive_passes")
    count(
        connection.Endpoint, "send_packets", "sends_outside_a_pass",
        when=lambda endpoint: not endpoint._suspend_rearm,
    )
    return counts


@pytest.mark.parametrize("scenario", [ANCHOR, BULK], ids=["handshake", "bulk"])
def test_structural_counts_that_explain_the_ceiling(counted, scenario):
    result = run_stats(Runner(), scenario)
    sent = result.client_stats.datagrams_sent + result.server_stats.datagrams_sent
    packets = sum(
        state.next_packet_number
        for endpoint in (result.client, result.server)
        for state in endpoint.recovery.spaces
    )
    # One Datagram per datagram sent: coalescing hands over packet
    # groups, and a padded group is built once, after padding.
    assert counted["datagrams_built"] == sent
    # A packet's size is computed where it is constructed and read as
    # an attribute afterwards; only padding (and the server's CID
    # rotation on an Initial retransmit) constructs a packet twice.
    assert counted["wire_size_calls"] == 0
    assert packets <= counted["packets_built"] <= packets + sent
    # The loss timer is evaluated at most once per receive pass and
    # once per send outside one (timer fires included in the slack).
    assert counted["deadline_evaluations"] <= (
        counted["receive_passes"] + counted["sends_outside_a_pass"]
    )


# -- ACK work tracks newly acked packets, not history ---------------------
#
# Every ACK re-covers the whole receive history, and in the 1 MiB cell
# the client's application space holds hundreds of packets in flight.
# Scanning the whole sent map (or walking the whole range) per ACK, and
# sorting the map per loss-detection pass, visited 62,993 entries in
# that cell; walking the map from the front and stopping past what each
# needs visits at most the packets acked plus one per call.


@pytest.fixture()
def walks(monkeypatch):
    """Entries of a ``sent`` map visited, by the caller that walked
    them (``ack``: on_ack_received, ``loss``: _detect_lost), plus the
    calls and the packets they acked."""
    counts = Counter()
    phase = ["ack"]

    class Walked(dict):
        def __iter__(self):
            for pn in dict.__iter__(self):
                counts[phase[-1]] += 1
                yield pn

        def items(self):
            for item in dict.items(self):
                counts[phase[-1]] += 1
                yield item

    real_init = recovery.Recovery.__init__
    real_ack = recovery.Recovery.on_ack_received
    real_detect = recovery.Recovery._detect_lost

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        for state in self.spaces:
            state.sent = Walked()

    def on_ack_received(self, *args, **kwargs):
        counts["ack_calls"] += 1
        result = real_ack(self, *args, **kwargs)
        counts["acked"] += len(result.newly_acked)
        return result

    def detect_lost(self, *args, **kwargs):
        counts["loss_calls"] += 1
        phase.append("loss")
        try:
            return real_detect(self, *args, **kwargs)
        finally:
            phase.pop()

    monkeypatch.setattr(recovery.Recovery, "__init__", init)
    monkeypatch.setattr(recovery.Recovery, "on_ack_received", on_ack_received)
    monkeypatch.setattr(recovery.Recovery, "_detect_lost", detect_lost)
    return counts


@pytest.mark.parametrize("scenario", [ANCHOR, BULK], ids=["handshake", "bulk"])
def test_ack_work_tracks_newly_acked_packets_not_history(walks, scenario):
    result = run_stats(Runner(), scenario)
    assert result.client_stats.completed
    # Each ACK visits the packets it acks, plus at most the one entry
    # past its top range; a lossless cell leaves no hole below it.
    assert walks["ack"] <= walks["acked"] + walks["ack_calls"]
    # Loss detection stops at the first entry above the largest acked:
    # lossless, everything below it is already gone.
    assert walks["loss"] <= walks["loss_calls"]
    if scenario is BULK:
        assert walks["acked"] > 1_000


# -- what an observed cell retains: what its observers declared ----------
#
# Until PR 21 a cell with any observer kept both qlogs and both links'
# capture (153,532 calls for the fig11 cell below, against 104,399 at
# stats level); now the planner hands it the union of its observers'
# ``reads``. Achieved: 122,905. Ceiling = achieved x 1.05.

FIG11_BULK_CALL_CEILING = 129_050


def observed_cell(experiments, scenario):
    """``scenario`` wrapped as ``SuiteRunner.plan`` wraps a cell that
    exactly ``experiments`` observe."""
    plan = SuiteRunner().plan(list(experiments), smoke=True)
    planned = next(
        cell.scenario for cell in plan.dispatch_cells
        if [exp_id for exp_id, _ in getattr(cell.scenario, "observers", ())] == list(experiments)
    )
    return replace(planned, scenario=scenario)


def test_profiler_calls_of_an_observed_bulk_cell_stay_under_the_ceiling():
    task = observed_cell(["fig11"], BULK)
    runner = Runner()
    run_stats(runner, replace(BULK, rtt_ms=20.0))  # warm, on another scenario
    profiler = cProfile.Profile()
    profiler.enable()
    artifacts = execute_cell(task, 0, ArtifactLevel.STATS, runner=runner)
    profiler.disable()
    assert artifacts.observed == {"fig11": get_spec("fig11").observe(
        execute_cell(BULK, 0, ArtifactLevel.TRACE)
    )}
    calls = pstats.Stats(profiler).total_calls
    assert calls <= FIG11_BULK_CALL_CEILING, (
        f"{calls} profiler calls for fig11's 1 MiB cell, ceiling {FIG11_BULK_CALL_CEILING} — "
        "an observed cell retains more than its observers read (see PERFORMANCE.md, "
        "What a cell retains)"
    )


# -- how much of a cell runs: until its observers are answered -----------
#
# fig16 reads the first metrics update and table4 the client's datagrams
# up to the FIN; until their specs declared ``answered`` each cell ran the
# whole 10 KB transfer and the close (2,599 and 2,307 calls for the cells
# below). Achieved: 1,636 and 796. Ceiling = achieved x 1.05.
#
# These are summed over cProfile's own entries, one per code object:
# ``pstats`` keys functions by (file, line, name), under which every
# dataclass ``__init__`` is ``<string>:2:__init__`` and all but one of
# them, picked by code-object address, drop out of ``total_calls``.

HALTED_CALL_CEILINGS = {
    "fig16": (["fig16"], ANCHOR, 1_718),
    "table4": (["table4"], replace(ANCHOR, mode=ServerMode.WFC), 836),
}


@pytest.mark.parametrize("experiment", sorted(HALTED_CALL_CEILINGS))
def test_a_halted_cell_stays_under_its_ceiling_and_short_of_the_whole_run(experiment):
    experiments, scenario, ceiling = HALTED_CALL_CEILINGS[experiment]
    task = observed_cell(experiments, scenario)
    assert task.answered
    runner = Runner()
    run_stats(runner, replace(scenario, rtt_ms=20.0))  # warm, on another scenario
    profiler = cProfile.Profile()
    profiler.enable()
    execute_cell(task, 0, ArtifactLevel.STATS, runner=runner)
    profiler.disable()
    calls = sum(entry.callcount for entry in profiler.getstats())
    assert calls <= ceiling, (
        f"{experiment}: {calls} profiler calls for a halted cell, ceiling {ceiling} — "
        "the cell runs past the point its observers are answered"
    )
    halted, whole = (
        execute_cell(scenario, 0, task.level, runner, task.sources, until).result.client.loop
        for until in (task.answered, ())
    )
    assert halted.stopped and not whole.stopped
    assert halted.events_processed < whole.events_processed


# -- what a finished cell leaves behind: nothing -------------------------
#
# The two endpoints reach each other through their transports
# (``partial(link.send, deliver=peer.on_datagram)``), and a queued timer
# reaches its endpoint and the loop. Left wired, every finished cell
# (its packets, sent-packet records and retained qlog events with it)
# waits for a generation-2 collection: 12,002 objects over fig12's 63
# smoke cells after the first, 17,983 over fig11's seven.
# ``Network.connect`` unwires the pair and empties the loop when a run
# ends, so refcounting frees the cell.


def test_a_finished_cell_leaves_nothing_for_the_cyclic_collector():
    plan = SuiteRunner().plan(REGISTRY.ids(), smoke=True)
    cells = plan.dispatch_cells
    table3 = next(p for p in plan.experiments if p.spec.id == "table3")
    runner = Runner()
    left = {}
    gc.disable()
    try:
        execute_cell(cells[0].scenario, cells[0].seed, LEVEL, runner=runner)  # warm
        gc.collect()
        # What lives now is no cell's: the collector skips it from here
        # on, so a collection costs what a cell allocated.
        gc.freeze()
        for index, cell in enumerate(cells):
            # At the backend's level: an observed cell runs at its own.
            execute_cell(cell.scenario, cell.seed, LEVEL, runner=runner)
            garbage = gc.collect()
            if garbage:
                left[f"{index}: {cell.scenario!r:.80}"] = garbage
        table3.spec.aggregate({}, table3.params)
        garbage = gc.collect()
        if garbage:
            left["table3 aggregate"] = garbage
    finally:
        gc.unfreeze()
        gc.enable()
    assert len(cells) > 200 and any(getattr(c.scenario, "observers", ()) for c in cells)
    assert left == {}, (
        f"objects left to the cyclic collector, per cell: {left} — an endpoint pair or "
        "the loop still holds a reference cycle after the run (see PERFORMANCE.md, A "
        "finished cell frees itself)"
    )


def test_a_full_run_comes_back_unwired_and_readable():
    result = Runner().run_once(ANCHOR, seed=0)
    assert result.completed and result.client.stats.completed
    assert result.client.stats.datagrams_sent == result.client_stats.datagrams_sent > 0
    assert any(type(event) is PacketEvent for event in result.client_qlog.events)
    assert result.client.loop.pending() == 0
    for endpoint in (result.client, result.server):
        packet = endpoint.build_packet(Space.APPLICATION, (PingFrame(),))
        with pytest.raises(RuntimeError, match=f"{endpoint.name}: transport not attached"):
            endpoint.send_packets([packet])


@pytest.fixture()
def retained(monkeypatch):
    """What a cell constructs for retention: ``TraceRecord`` counts per
    link and ``PacketEvent`` counts per event name."""
    records, events = Counter(), Counter()

    def counting_record(**fields):
        records[fields["link"]] += 1
        return TraceRecord(**fields)

    def counting_event(*args):
        events[args[2]] += 1
        return PacketEvent(*args)

    monkeypatch.setattr(trace, "TraceRecord", counting_record)
    monkeypatch.setattr(writer, "PacketEvent", counting_event)
    return records, events


@pytest.mark.parametrize(
    "experiments, scenario, links",
    [
        (["fig11"], replace(BULK, response_size=1 << 16), []),
        (["fig16"], ANCHOR, []),
        (["table4"], replace(ANCHOR, mode=ServerMode.WFC), ["client->server"]),
        (["fig16", "table4"], replace(ANCHOR, mode=ServerMode.WFC), ["client->server"]),
    ],
    ids=["fig11", "fig16", "table4", "fig16+table4"],
)
def test_an_observed_cell_constructs_nothing_for_sources_nobody_declared(
    retained, experiments, scenario, links
):
    records, events = retained
    task = observed_cell(experiments, scenario)
    cell = execute_cell(scenario, 0, task.level, sources=task.sources)
    assert set(records) == set(links)
    if links:
        assert records["client->server"] == cell.client_stats.datagrams_sent
    # Every PacketEvent built is in the client's qlog: none is server-side
    # (no observer reads that qlog), and table4 alone builds none at all.
    assert cell.server_qlog_events is None
    assert sum(events.values()) == sum(
        type(event) is PacketEvent for event in cell.client_qlog_events or ()
    )
    assert bool(events) == (experiments != ["table4"])


# -- where an observed cell's trace goes: nowhere ------------------------
#
# fig16 reads one float per connection. Until PR 17 every cell's packet
# trace and both qlogs crossed the wire, were spilled to an
# ArtifactStore and were unpickled again inside aggregate, 64 cells at
# a time; now the observer runs in the worker and these counts hold.


def fleet_result_bytes_per_cell(experiment, monkeypatch):
    """RESULT bytes before compression per cell of one smoke run over
    a loopback 2-worker fleet — which the work loop must dispatch to
    the backend once, constructing no ``ArtifactStore``."""
    from test_observe import fleet_session

    from repro.api import RunRequest
    from repro.runtime import SocketBackend, store

    def no_store(self, *args, **kwargs):
        raise AssertionError("a suite constructed an ArtifactStore")

    monkeypatch.setattr(store.ArtifactStore, "__init__", no_store)
    entered = []
    real_run_cells = SocketBackend.run_cells

    def counting_run_cells(self, cells):
        entered.append(len(cells))
        return real_run_cells(self, cells)

    monkeypatch.setattr(SocketBackend, "run_cells", counting_run_cells)
    with fleet_session(workers=2) as session:
        report = session.run(RunRequest((experiment,), smoke=True))
        raw = session.backend_stats.result_bytes_raw
    assert entered == [report.executed_cells]  # the whole pool in one call
    return raw / report.executed_cells


def test_an_observed_cell_ships_about_what_a_stats_cell_ships(monkeypatch):
    observed = fleet_result_bytes_per_cell("fig16", monkeypatch)
    stats = fleet_result_bytes_per_cell("fig12", monkeypatch)
    assert observed <= 1.5 * stats, (
        f"fig16 ships {observed:.0f} B/cell before compression against fig12's "
        f"{stats:.0f}: something above stats level is crossing the wire again"
    )


# -- a scan probe is its draws -------------------------------------------
#
# One synthetic shard (the first of the 2-shard scan SHARD_PIN hashes):
# 1,000 targets, 274 of them answer QUIC, probed from two vantage points
# on two days, in a process that ran it once already. Until PR 41 a
# probe constructed a ``random.Random`` from its key, called five model
# methods that recomputed per-CDN constants, hashed the ``Cdn`` Enum in
# Python, built a ``ProbeResult`` the shard read back field by field,
# and each QUIC target's address was built with ``ipaddress`` (88.56
# calls per probe, 1,128 ``Random.__init__``, 3,042 ``ipaddress``
# calls). Achieved: 54.58. Ceiling = achieved x 1.05.

SHARD_CALLS_PER_PROBE_CEILING = 57.31


def profiled_shard():
    from repro.wild.stream.shard import ShardProbeTask

    task = ShardProbeTask(
        source_spec={"kind": "synthetic", "count": 2000, "seed": 3},
        start=0,
        stop=1000,
        shard_index=0,
        vantage_names=("Hamburg", "Sao Paulo"),
        days=2,
        probe_seed=0,
    )
    task.execute_task(0, ArtifactLevel.STATS)  # warm: imports, caches
    profiler = cProfile.Profile()
    profiler.enable()
    outcome = task.execute_task(0, ArtifactLevel.STATS)
    profiler.disable()
    return task, outcome.sketch.probes, profiler.getstats()


def test_profiler_calls_per_scan_probe_stay_under_the_ceiling():
    _task, probes, stats = profiled_shard()
    calls = sum(entry.callcount for entry in stats)
    assert probes == 1096
    assert calls / probes <= SHARD_CALLS_PER_PROBE_CEILING, (
        f"{calls / probes:.2f} profiler calls per scan probe, ceiling "
        f"{SHARD_CALLS_PER_PROBE_CEILING} — the per-probe path got more expensive "
        "(see PERFORMANCE.md, A probe is its draws)"
    )


def test_structural_counts_of_a_scan_probe():
    from repro.wild.asdb import Cdn

    task, probes, stats = profiled_shard()

    def called(match):
        return sum(entry.callcount for entry in stats if match(entry.code))

    def python(filename, name):
        return lambda code: (
            not isinstance(code, str)
            and code.co_filename.endswith(filename)
            and code.co_name == name
        )

    scanners = len(task.vantage_names)
    biases = scanners * task.days * len(Cdn)
    # One bias derivation per (vantage, day, CDN), not per probe.
    assert called(python("qscanner.py", "_share_bias")) == biases
    # Exactly one MT19937 seeding per probe: the rest are the biases and
    # each scanner's own rng, built once with its scanner.
    mt_seedings = called(
        lambda code: isinstance(code, str)
        and ("Random.seed" in code or "'seed' of '_random.Random'" in code)
    )
    assert mt_seedings == probes + biases + scanners
    assert called(python("random.py", "__init__")) == scanners
    # No address is built or parsed as an ``ipaddress`` object.
    assert called(
        lambda code: not isinstance(code, str) and code.co_filename.endswith("ipaddress.py")
    ) == 0
