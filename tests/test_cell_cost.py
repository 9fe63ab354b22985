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
"""

import cProfile
import pstats
from collections import Counter
from dataclasses import replace

import pytest

from repro.experiments.registry import get_spec
from repro.interop.runner import Runner, Scenario
from repro.qlog import writer
from repro.qlog.events import PacketEvent
from repro.quic import coalescing, connection, packet, recovery
from repro.quic.server import ServerMode
from repro.runtime import ArtifactLevel, SuiteRunner, execute_cell
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

    def counting_run_cells(self, cells, level_value, chunk_size=None):
        entered.append(len(cells))
        return real_run_cells(self, cells, level_value, chunk_size=chunk_size)

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
