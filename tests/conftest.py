"""Session-wide guard: a test run leaves no process behind.

Tests start pools, fleet workers, daemons and subprocesses. Each must be
gone by the time the session ends; one that is not keeps running after
pytest exits and holds the machine's memory. At session end the guard
waits up to :data:`GRACE_S` for every descendant of the pytest process
to exit, then fails the session naming each survivor by pid and command
line. It reads ``/proc`` and does nothing where there is none.

It also holds :func:`cold_plans`, for the tests that count what planning
a request costs, and :func:`chunk_cells`, for the tests that need the
fleet's chunks to be of one size.
"""

import os
import time

import pytest

import repro.runtime.scheduler as scheduler_module
import repro.runtime.suite as suite_module

#: How long descendants get to exit after the last test.
GRACE_S = 10.0


def _live_descendants():
    """``{pid: command line}`` of every live (not zombie) descendant of
    this process."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:  # exited while we looked
            continue
        if fields[0] != "Z":
            children.setdefault(int(fields[1]), []).append(int(entry))
    found, stack = {}, [os.getpid()]
    while stack:
        for pid in children.get(stack.pop(), ()):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as cmdline:
                    found[pid] = cmdline.read().replace(b"\0", b" ").decode(errors="replace")
            except OSError:
                continue
            stack.append(pid)
    return found


@pytest.fixture
def cold_plans():
    """An empty process plan memo: the test's first request of each
    kind is planned, not served a plan an earlier test made."""
    suite_module._PLANS.clear()
    yield
    suite_module._PLANS.clear()


@pytest.fixture
def chunk_cells(monkeypatch):
    """``chunk_cells(n)`` makes every chunk the fleet's scheduler carves
    from then on exactly ``n`` cells (fewer only at the pool's end, and
    a task that runs alone is still a chunk of its own): the cell
    bounds it clamps each carve to, read at call time, both become
    ``n``."""

    def pin(cells):
        monkeypatch.setattr(scheduler_module, "MIN_CHUNK_CELLS", cells)
        monkeypatch.setattr(scheduler_module, "MAX_CHUNK_CELLS", cells)

    return pin


def pytest_sessionfinish(session, exitstatus):
    if not os.path.isdir("/proc"):
        return
    deadline = time.monotonic() + GRACE_S
    survivors = _live_descendants()
    while survivors and time.monotonic() < deadline:
        time.sleep(0.1)
        survivors = _live_descendants()
    if not survivors:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    write = reporter.write_line if reporter is not None else print
    write("")
    write(f"{len(survivors)} process(es) still running {GRACE_S:.0f} s after the last test:")
    for pid, cmdline in sorted(survivors.items()):
        write(f"  pid {pid}: {cmdline.strip()}")
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
