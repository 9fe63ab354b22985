"""Scheduling policy unit tests: the distributed coordinator's chunk
pool, one holder per chunk, requeue/poison bounds, EWMA sizing, and
elastic membership — exercised without any sockets, which is the point of
keeping :class:`~repro.runtime.scheduler.ChunkScheduler` apart from the
transport. Other bounds than the module constants are monkeypatched.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import BackendError
from repro.runtime import scheduler
from repro.runtime.scheduler import ChunkScheduler, WorkerState
from repro.runtime.worker import runs_alone


def cells(start, count, scenario="scenario"):
    """IndexedCell triples with distinct indices/seeds."""
    return [(start + i, scenario, start + i) for i in range(count)]


def start_fixed_job(sched, job_id, count, chunk_cells):
    """Start a job whose pool carves into ``count`` two-cell chunks."""
    chunk_cells(2)
    sched.start_job(job_id, pool=cells(0, 2 * count))


class Pass:
    """A task cell that is no simulator scenario, as a wild pass is."""

    def execute_task(self, seed, level, runner=None):
        raise AssertionError("the scheduler never executes a cell")


def result_for(chunk):
    return [(index, f"artifact-{index}") for _, pairs in chunk for index, _seed in pairs]


def seed_rate(state: WorkerState, rate: float) -> None:
    state.ewma_rate = rate


# -- pool shapes --------------------------------------------------------


def test_fixed_chunks_dispatch_and_reassemble_in_order(chunk_cells):
    sched = ChunkScheduler()
    sched.add_worker(1)
    start_fixed_job(sched, "job-a", 3, chunk_cells)
    seen = []
    while True:
        assignment = sched.assign(1, now=0.0)
        if assignment is None:
            break
        seen.append(assignment.chunk_id)
        sched.mark_send(1, now=0.0)
        assert sched.record(1, assignment.chunk_id, result_for(assignment.chunk))
    assert seen == [0, 1, 2]
    assert sched.job.done()
    ordered = sched.job.results_in_order()
    assert [index for index, _ in ordered] == list(range(6))


def test_adaptive_pool_carves_by_ewma_rate():
    sched = ChunkScheduler()
    state = sched.add_worker(1)
    sched.start_job("job-a", pool=cells(0, 100), initial_chunk_cells=4)
    first = sched.assign(1, now=0.0)
    assert first.cells == 4  # no EWMA yet: the conservative opener
    sched.mark_send(1, now=0.0)
    sched.record(1, first.chunk_id, result_for(first.chunk))
    # 4 cells in 0.2s → 20 cells/s → next chunk targets ~20 cells
    state.observe_result(0.2, 4)
    assert state.ewma_rate == pytest.approx(20.0)
    second = sched.assign(1, now=0.3)
    assert second.cells == 20


def test_pool_below_one_budget_is_split_between_the_idle_workers():
    """Two warmed workers whose wall-clock budget (1000 cells) exceeds
    the whole pool: the first to ask must leave the other its share
    instead of taking the lot, and a lone idle worker takes what is
    left rather than carving a geometric tail."""
    sched = ChunkScheduler()
    seed_rate(sched.add_worker(1), 1000.0)
    other = sched.add_worker(2)
    seed_rate(other, 3000.0)
    sched.start_job("job-a", pool=cells(0, 64), initial_chunk_cells=8)
    first = sched.assign(1, now=0.0)
    second = sched.assign(2, now=0.0)
    assert (first.cells, second.cells) == (16, 48)
    sched.finish_job()
    sched.start_job("job-b", pool=cells(0, 64), initial_chunk_cells=8)
    other.chunk_id = 99  # busy elsewhere: not a candidate
    assert sched.assign(1, now=0.0).cells == 64


_RATE = st.floats(min_value=0.01, max_value=1e6)


@given(
    rates=st.one_of(
        st.lists(_RATE, min_size=1, max_size=8),
        st.lists(st.none(), min_size=1, max_size=8),
        st.lists(st.none() | _RATE, min_size=1, max_size=8),
    ),
    draining=st.integers(min_value=0, max_value=3),
    spare_cells=st.integers(min_value=0, max_value=400),
    max_chunk_cells=st.integers(min_value=1, max_value=600),
)
def test_fair_share_carving_properties(rates, draining, spare_cells, max_chunk_cells):
    """N idle workers, any mix of known and unknown rates, a pool of
    P >= N cells: N consecutive assigns give every worker at least one
    cell and none more than the ceiling of its proportional share
    (its equal share when no rate is known yet); draining workers are
    never counted; every cell is carved exactly once across the job.

    A fleet with some rates unknown splits equally only until its
    unrated workers are busy, so no closed-form share bounds a worker
    there; the other properties still hold."""
    with pytest.MonkeyPatch.context() as patch:
        # A budget no share can reach, so the share is what sizes chunks.
        patch.setattr(scheduler, "TARGET_CHUNK_SECONDS", 1e6)
        patch.setattr(scheduler, "MAX_CHUNK_CELLS", max_chunk_cells)
        check_fair_share_carving(rates, draining, spare_cells, max_chunk_cells)


def check_fair_share_carving(rates, draining, spare_cells, max_chunk_cells):
    workers = len(rates)
    pool = workers + spare_cells
    sched = ChunkScheduler()
    for wid, rate in enumerate(rates):
        sched.add_worker(wid).ewma_rate = rate
    for wid in range(workers, workers + draining):
        sched.add_worker(wid).ewma_rate = 1e6
        sched.drain_worker(wid)
    sched.start_job("job-a", pool=cells(0, pool), initial_chunk_cells=pool)

    held = {wid: sched.assign(wid, now=0.0) for wid in range(workers + draining)}
    assert all(held[wid] is None for wid in range(workers, workers + draining))
    if None not in rates:
        shares = [pool * rate / sum(rates) for rate in rates]
    elif not any(rates):
        shares = [pool / workers] * workers
    else:
        shares = [pool] * workers
    for wid, share in enumerate(shares):
        assert 1 <= held[wid].cells <= max_chunk_cells
        if max_chunk_cells >= pool:
            # Nothing but the share caps a carve.
            assert held[wid].cells <= math.ceil(share + 1e-6)
    if max_chunk_cells >= pool:
        # ... so one round hands out the whole pool.
        assert sum(held[wid].cells for wid in range(workers)) == pool

    carved = []
    for wid in range(workers):
        carved += result_for(held[wid].chunk)
        assert sched.record(wid, held[wid].chunk_id, result_for(held[wid].chunk))
    while not sched.job.done():
        for wid in range(workers):
            assignment = sched.assign(wid, now=0.0)
            if assignment is not None:
                carved += result_for(assignment.chunk)
                sched.record(wid, assignment.chunk_id, result_for(assignment.chunk))
    assert sorted(index for index, _ in carved) == list(range(pool))


@given(
    simulated=st.integers(min_value=0, max_value=20),
    alone=st.integers(min_value=1, max_value=4),
    size=st.integers(min_value=1, max_value=12),
    actions=st.lists(st.sampled_from(["record", "lose", "split"]), max_size=40),
)
def test_a_task_that_runs_alone_never_shares_a_chunk(simulated, alone, size, actions):
    """Simulator cells with passes at the pool's end, carved at any
    size by two workers that record, get lost (their chunk requeued) or
    overflow the frame bound (their chunk split): every chunk ever
    dispatched that holds a pass holds nothing else, no chunk is handed
    out while another worker holds it or after it was recorded, and
    every cell is recorded exactly once."""
    pool = cells(0, simulated) + [(simulated + i, Pass(), 0) for i in range(alone)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler, "MIN_CHUNK_CELLS", size)
        patch.setattr(scheduler, "MAX_CHUNK_CELLS", size)
        patch.setattr(scheduler, "MAX_CHUNK_RETRIES", len(actions) + 1)
        sched = ChunkScheduler()
        held = {}

        def assign_idle():
            for wid in (1, 2):
                if wid not in held:
                    assignment = sched.assign(wid, now=0.0)
                    if assignment is not None:
                        # One holder: never a chunk held elsewhere or recorded.
                        assert assignment.chunk_id not in {a.chunk_id for a in held.values()}
                        assert assignment.chunk_id not in sched.job.results
                        tasks = [task for task, pairs in assignment.chunk for _ in pairs]
                        assert len(tasks) == 1 or not any(map(runs_alone, tasks))
                        held[wid] = assignment

        for wid in (1, 2):
            sched.add_worker(wid)
        sched.start_job("job-a", pool=pool)
        assign_idle()
        for action in actions:
            if not held:
                break
            wid = min(held)
            assignment = held.pop(wid)
            if action == "record":
                sched.record(wid, assignment.chunk_id, result_for(assignment.chunk))
            elif action == "lose":
                assert sched.remove_worker(wid) == assignment.chunk_id
                assert sched.requeue(assignment.chunk_id)
                sched.add_worker(wid)
            elif not sched.split_oversized(wid, assignment):
                assert assignment.cells == 1  # only a one-cell chunk cannot split
            assign_idle()
        while held:
            wid = min(held)
            assignment = held.pop(wid)
            sched.record(wid, assignment.chunk_id, result_for(assignment.chunk))
            assign_idle()
        assert sched.job.done()
        recorded = sorted(index for index, _ in sched.job.results_in_order())
        assert recorded == list(range(len(pool)))


def test_busy_and_draining_workers_get_no_assignment(chunk_cells):
    sched = ChunkScheduler()
    sched.add_worker(1)
    sched.add_worker(2)
    start_fixed_job(sched, "job-a", 4, chunk_cells)
    held = sched.assign(1, now=0.0)
    assert held is not None
    assert sched.assign(1, now=0.0) is None  # already holds a chunk
    sched.drain_worker(2)
    assert sched.assign(2, now=0.0) is None  # draining: no new work


# -- requeue and the poison bound ---------------------------------------


def test_lost_chunk_requeues_to_front_and_poison_bound_names_cells(chunk_cells):
    sched = ChunkScheduler()
    sched.add_worker(1)
    start_fixed_job(sched, "job-a", 2, chunk_cells)
    for _ in range(scheduler.MAX_CHUNK_RETRIES):
        assignment = sched.assign(1, now=0.0)
        assert assignment.chunk_id == 0  # front requeue: same chunk again
        held = sched.remove_worker(1)
        assert held == 0
        assert sched.can_requeue(0)
        assert sched.requeue(0)
        sched.add_worker(1)
    with pytest.raises(BackendError, match="giving up") as excinfo:
        sched.assign(1, now=0.0)
    # the poison cells are attached so SuiteRunner can name experiments
    assert excinfo.value.poison_cells == (("scenario", 0), ("scenario", 1))


def test_can_requeue_false_for_recorded_or_still_held_chunks(chunk_cells):
    sched = ChunkScheduler()
    sched.add_worker(1)
    sched.add_worker(2)
    start_fixed_job(sched, "job-a", 2, chunk_cells)
    a = sched.assign(1, now=0.0)
    b = sched.assign(2, now=0.0)
    sched.record(1, a.chunk_id, result_for(a.chunk))
    assert not sched.can_requeue(a.chunk_id)  # already recorded
    assert not sched.requeue(a.chunk_id)
    assert not sched.can_requeue(b.chunk_id)  # worker 2 still holds it
    sched.remove_worker(2)
    assert sched.can_requeue(b.chunk_id)
    assert sched.requeue(b.chunk_id)


def test_duplicate_record_is_ignored(chunk_cells):
    sched = ChunkScheduler()
    sched.add_worker(1)
    start_fixed_job(sched, "job-a", 1, chunk_cells)
    assignment = sched.assign(1, now=0.0)
    assert sched.record(1, assignment.chunk_id, result_for(assignment.chunk))
    assert not sched.record(1, assignment.chunk_id, result_for(assignment.chunk))
    assert len(sched.job.results) == 1


def test_unassign_rolls_back_a_failed_dispatch(chunk_cells):
    sched = ChunkScheduler()
    state = sched.add_worker(1)
    start_fixed_job(sched, "job-a", 1, chunk_cells)
    assignment = sched.assign(1, now=0.0)
    sched.unassign(1, assignment)
    assert state.chunk_id is None
    again = sched.assign(1, now=0.0)
    assert again.chunk_id == assignment.chunk_id


def test_an_idle_worker_at_the_pools_end_gets_none_however_overdue_a_held_chunk(
    chunk_cells,
):
    """With the pool carved and nothing requeued, an idle worker gets no
    chunk however long another worker has held one: a chunk has one
    holder and runs again only when requeued after its worker is lost."""
    sched = ChunkScheduler()
    seed_rate(sched.add_worker(1), 1000.0)
    seed_rate(sched.add_worker(2), 1000.0)
    start_fixed_job(sched, "job-a", 1, chunk_cells)
    held = sched.assign(1, now=0.0)
    sched.mark_send(1, now=0.0)
    assert sched.assign(2, now=1e9) is None
    assert sched.record(1, held.chunk_id, result_for(held.chunk))
    assert sched.job.done()


def test_a_failed_job_hands_out_no_chunk_and_keeps_its_first_failure(chunk_cells):
    """After a worker's ERROR fails the job, the worker it released gets
    no further chunk of that job, and a later failure (a stale ERROR
    frame) does not replace the first as the reported cause."""
    sched = ChunkScheduler()
    sched.add_worker(1)
    start_fixed_job(sched, "job-a", 2, chunk_cells)
    first = sched.assign(1, now=0.0)
    sched.release(1)
    sched.fail({"chunk_id": first.chunk_id, "error": "boom"})
    assert sched.assign(1, now=0.0) is None
    sched.fail({"chunk_id": first.chunk_id, "error": "stale boom"})
    assert sched.job.failure["error"] == "boom"


def test_stale_job_frames_are_rejected(chunk_cells):
    sched = ChunkScheduler()
    sched.add_worker(1)
    start_fixed_job(sched, "job-b", 1, chunk_cells)
    assert sched.accepts("job-b")
    assert not sched.accepts("job-a")
    assert not sched.valid_chunk(999)
    assert not sched.valid_chunk("0")

