"""``repro.api`` — the stable public façade of the reproduction.

The one way to run experiments — the CLI, the ``repro serve`` daemon
and the benchmarks are all clients of it:

>>> from repro.api import Session, RunRequest, LocalConfig
>>> with Session(LocalConfig(workers=4)) as session:
...     report = session.run(RunRequest(("fig6", "fig12"), smoke=True))
...     fig6 = report.results["fig6"]

Surface
-------

:class:`Session`
    Owns backend lifecycle and execution policy; context manager.
:class:`RunRequest`
    Experiment selection + per-experiment parameter overrides + smoke
    flag.
:class:`LocalConfig` / :class:`DistributedConfig`
    Typed backend configurations (process pool vs. TCP worker fleet).
Run events
    ``session.run(..., on_event=cb)`` streams typed
    :class:`RunEvent` objects (suite planned, chunks dispatched,
    cells completed, workers joined/lost, experiments completed).
Jobs
    ``session.submit(request)`` queues work without blocking and
    returns a :class:`JobHandle` (``.status()`` / ``.events()`` /
    ``.result()``); :class:`ServiceClient` speaks the same handle
    surface to a ``repro serve`` daemon, with :class:`JobStatus` /
    :class:`JobRecord` as the shared vocabulary
    (:mod:`repro.api.jobs`).
Durable cache
    ``Session(cache_dir=DIR)`` attaches a content-addressed on-disk
    result cache (:mod:`repro.runtime.disk_cache`): reruns of already
    computed cells — same process, after a restart, or the same run
    started again after a crash — replay from disk with
    byte-identical bundles.
Errors
    Every predictable failure is a typed exception from
    :mod:`repro.errors`, re-exported here: :class:`UnknownExperiment`,
    :class:`InvalidOverride`, :class:`BackendError`,
    :class:`WorkerAuthError`, :class:`BundleVersionError`,
    :class:`ObserveError`, :class:`ServiceError` and its
    :class:`UnknownJob`.
Resilience
    Crash recovery is a warm ``cache_dir`` (cells are stored as they
    complete). See ``RESILIENCE.md``.
Bundles
    :func:`write_bundle` / :func:`load_result` / :func:`load_suite`
    persist and read ``schema_version``-stamped JSON bundles
    (:data:`BUNDLE_SCHEMA_VERSION`).

See ``API.md`` at the repository root for the full reference.
"""

from repro.api.bundles import load_result, load_suite, write_bundle
from repro.api.client import ServiceClient
from repro.api.config import BackendConfig, DistributedConfig, LocalConfig
from repro.api.jobs import JobHandle, JobId, JobRecord, JobStatus
from repro.api.session import (
    RunRequest,
    Session,
    describe_experiments,
    expand_selection,
)
from repro.errors import (
    BackendError,
    BundleVersionError,
    InvalidOverride,
    ObserveError,
    ReproError,
    ServiceError,
    UnknownExperiment,
    UnknownJob,
    WorkerAuthError,
)
from repro.experiments.common import ExperimentResult
from repro.runtime.events import (
    CellCompleted,
    ChunkCompleted,
    ChunkDispatched,
    EventSink,
    ExperimentCompleted,
    RunEvent,
    ScanCompleted,
    ShardCompleted,
    ShardDispatched,
    SuiteCompleted,
    SuitePlanned,
    WorkerDrained,
    WorkerJoined,
    WorkerLost,
)
from repro.runtime.suite import SuitePlan, SuiteReport
from repro.schema import BUNDLE_SCHEMA_VERSION
from repro.wild.stream import ScanReport, ScanRequest

__all__ = [
    "BUNDLE_SCHEMA_VERSION",
    "BackendConfig",
    "BackendError",
    "BundleVersionError",
    "CellCompleted",
    "ChunkCompleted",
    "ChunkDispatched",
    "DistributedConfig",
    "EventSink",
    "ExperimentCompleted",
    "ExperimentResult",
    "InvalidOverride",
    "JobHandle",
    "JobId",
    "JobRecord",
    "JobStatus",
    "LocalConfig",
    "ObserveError",
    "ReproError",
    "RunEvent",
    "RunRequest",
    "ScanCompleted",
    "ScanReport",
    "ScanRequest",
    "ServiceClient",
    "ServiceError",
    "Session",
    "ShardCompleted",
    "ShardDispatched",
    "SuiteCompleted",
    "SuitePlan",
    "SuitePlanned",
    "SuiteReport",
    "UnknownExperiment",
    "UnknownJob",
    "WorkerAuthError",
    "WorkerDrained",
    "WorkerJoined",
    "WorkerLost",
    "describe_experiments",
    "expand_selection",
    "load_result",
    "load_suite",
    "run",
    "run_experiment",
    "write_bundle",
]


def run(
    experiments,
    *,
    overrides=None,
    smoke=False,
    backend=None,
    on_event=None,
    cache_dir=None,
    out=None,
):
    """One-call convenience: run a selection in an ephemeral session.

    Accepts the full :class:`RunRequest` vocabulary (``overrides``,
    ``smoke``) plus session policy (``backend``,
    ``on_event``, ``cache_dir``); ``out`` optionally writes the
    versioned bundle directory before returning the
    :class:`SuiteReport`.
    """
    request = RunRequest(experiments=experiments, overrides=overrides or {}, smoke=smoke)
    with Session(backend, on_event=on_event, cache_dir=cache_dir) as session:
        report = session.run(request)
        if out is not None:
            session.write_bundle(report, out)
        return report


def run_experiment(
    experiment_id,
    *,
    smoke=False,
    backend=None,
    on_event=None,
    cache_dir=None,
    **overrides,
):
    """One-call convenience: run a single experiment and return its
    :class:`ExperimentResult` (keyword arguments are parameter
    overrides)."""
    with Session(backend, on_event=on_event, cache_dir=cache_dir) as session:
        return session.run_experiment(experiment_id, smoke=smoke, **overrides)
