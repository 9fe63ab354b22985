"""The session/job core of the ``repro.api`` façade.

A :class:`Session` owns the execution context — backend lifecycle,
event observers — and executes :class:`RunRequest` jobs
against it. :meth:`Session.run` →
:meth:`~repro.runtime.suite.SuiteRunner.run` is the only code that
plans, executes and aggregates an experiment; the CLI, the daemon and
the one-call helpers in :mod:`repro.api` all come through it: one
entry point, one error taxonomy (:mod:`repro.errors`), one versioned
result schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.bundles import write_bundle
from repro.api.config import BackendConfig, LocalConfig
from repro.api.jobs import JobExecutor, JobHandle, LocalJobHandle
from repro.api.stream import RunStream
from repro.errors import BackendError, InvalidOverride, UnknownExperiment
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import REGISTRY
from repro.interop.runner import Runner, Scenario
from repro.runtime.artifacts import ArtifactLevel, RunArtifacts, execute_cell
from repro.runtime.backend import ExecutionBackend
from repro.runtime.disk_cache import DiskResultCache
from repro.runtime.events import EventSink, RunEvent, emit
from repro.runtime.suite import SuitePlan, SuiteReport, SuiteRunner
from repro.runtime.workloop import LEVEL, run_work, work_items

__all__ = [
    "RunRequest",
    "Session",
    "describe_experiments",
    "expand_selection",
    "validate_request",
]

#: Selection shorthand accepted everywhere an experiment list is:
#: the literal ``"all"`` expands to every registered experiment.
ALL = "all"


def expand_selection(experiments: Union[str, Sequence[str]]) -> List[str]:
    """Normalize a selection to concrete experiment ids.

    Accepts a single id, a sequence of ids, or the literal ``"all"``;
    unknown ids raise :class:`~repro.errors.UnknownExperiment` before
    any work happens.
    """
    names = [experiments] if isinstance(experiments, str) else list(experiments)
    if not names:
        raise UnknownExperiment(
            f"empty experiment selection; known: {', '.join(REGISTRY.ids())} "
            f"(or {ALL!r})"
        )
    if names == [ALL]:
        return [spec.id for spec in REGISTRY.specs()]
    unknown = [name for name in names if name not in REGISTRY]
    if unknown:
        raise UnknownExperiment(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"known: {', '.join(REGISTRY.ids())} (or {ALL!r})"
        )
    return names


def describe_experiments() -> List[Dict[str, Any]]:
    """Registry metadata for every experiment, in paper order."""
    return [spec.describe() for spec in REGISTRY.specs()]


def validate_request(request: "RunRequest") -> Tuple[List[str], Dict[str, Mapping[str, Any]]]:
    """Check a request against the registry and return its concrete
    ``(experiment ids, overrides)``.

    Raises :class:`~repro.errors.UnknownExperiment` /
    :class:`~repro.errors.InvalidOverride` — shared by ``Session`` and
    the ``repro serve`` daemon, which both reject bad requests at
    submission, before any execution resource is committed."""
    ids = expand_selection(request.experiments)
    overrides = dict(request.overrides or {})
    for exp_id in overrides:
        if exp_id not in REGISTRY:
            raise UnknownExperiment(
                f"override targets unknown experiment {exp_id!r}; "
                f"known: {', '.join(REGISTRY.ids())}"
            )
        if exp_id not in ids:
            raise InvalidOverride(
                f"override targets {exp_id!r}, which is not in the selection {ids}"
            )
        # Unknown keys and mis-shaped values fail here, at submission;
        # SuiteRunner.plan resolves again with the worker context.
        REGISTRY.get(exp_id).resolve_params(overrides[exp_id], smoke=request.smoke)
    return ids, overrides


@dataclass(frozen=True)
class RunRequest:
    """One job: which experiments, at which parameters.

    ``experiments``
        Ids to run — a single id, a sequence, or ``"all"``.
    ``overrides``
        Per-experiment parameter overrides, keyed experiment id →
        ``{parameter: value}``. Keys are validated against each
        spec's declared defaults
        (:class:`~repro.errors.InvalidOverride` on a typo) and against
        the selection (overriding an unselected experiment is an
        error, not a no-op).
    ``smoke``
        Run at each spec's smoke-sized parameters (explicit overrides
        still win) — the CI configuration.
    """

    experiments: Union[str, Tuple[str, ...]]
    overrides: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    smoke: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.experiments, str):
            object.__setattr__(self, "experiments", tuple(self.experiments))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe wire form (what ``repro submit`` sends the
        daemon); :meth:`from_dict` reverses it."""
        experiments: Any = self.experiments
        if isinstance(experiments, tuple):
            experiments = list(experiments)
        return {
            "experiments": experiments,
            "overrides": {exp: dict(params) for exp, params in self.overrides.items()},
            "smoke": self.smoke,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "RunRequest":
        if not isinstance(doc, Mapping):
            raise InvalidOverride(f"run request must be a mapping, got {type(doc).__name__}")
        # A key this version does not know (a stale client's
        # ``"engine"``, a newer client's addition) is refused, never
        # silently dropped: the job would not run as its sender asked.
        unknown = sorted(set(doc) - {"experiments", "overrides", "smoke"})
        if unknown:
            raise InvalidOverride(f"run request has unknown key(s) {unknown}")
        experiments = doc.get("experiments")
        if experiments is None:
            raise InvalidOverride("run request is missing 'experiments'")
        if isinstance(experiments, list):
            experiments = tuple(experiments)
        if not isinstance(experiments, str) and not (
            isinstance(experiments, tuple) and all(isinstance(e, str) for e in experiments)
        ):
            raise InvalidOverride(
                f"run request 'experiments' must be an id or a list of ids, got {experiments!r}"
            )
        overrides = doc.get("overrides") or {}
        if not isinstance(overrides, Mapping):
            raise InvalidOverride(
                f"run request 'overrides' must be a mapping, got {type(overrides).__name__}"
            )
        for exp, params in overrides.items():
            if not isinstance(params, Mapping):
                raise InvalidOverride(
                    f"run request overrides of {exp!r} must be a mapping, "
                    f"got {type(params).__name__}"
                )
        smoke = doc.get("smoke", False)
        if not isinstance(smoke, bool):
            raise InvalidOverride(f"run request 'smoke' must be true or false, got {smoke!r}")
        return cls(
            experiments=experiments,
            overrides={exp: dict(params) for exp, params in overrides.items()},
            smoke=smoke,
        )


class Session:
    """Owns an execution context and runs jobs against it.

    ``backend``
        A typed :class:`~repro.api.config.BackendConfig`; defaults to
        serial local execution. A
        :class:`~repro.api.config.DistributedConfig` binds its
        coordinator socket here in the constructor — read
        :attr:`address` and point ``python -m repro worker --connect``
        processes at it.
    ``on_event``
        Session-wide :class:`~repro.runtime.events.EventSink`; every
        run's events are also delivered here (per-run callbacks and
        streams receive them too).
    ``cache_dir``
        Optional durable result-cache directory (a
        :class:`~repro.runtime.disk_cache.DiskResultCache` path, or a
        ready-made instance to share one store across sessions): every
        run consults it before dispatching cells and stores each cell
        as its batch completes, so reruns — in this process, after a
        restart, via the ``repro serve`` daemon, or the same run started
        again after a crash (see RESILIENCE.md) — replay stored cells
        instead of executing them, with byte-identical bundles. Each
        run's own hit/miss counts land on
        ``report.extra["disk_cache_hits"]`` / ``["disk_cache_misses"]``.

    A session owns exactly one execution backend, made by
    ``backend.create()`` in the constructor and used by :meth:`run`,
    :meth:`scan`, :meth:`run_repetitions` and :meth:`submit` alike: a
    local process pool lives as long as the session does. Sessions are
    context managers; :meth:`close` tears the backend down (reaping the
    pool, telling distributed workers to exit). One job runs at a
    time per session — the underlying backend serves a single job;
    :meth:`submit` queues jobs onto a session-owned worker thread
    instead of blocking the caller.
    """

    def __init__(
        self,
        backend: Optional[BackendConfig] = None,
        *,
        on_event: Optional[EventSink] = None,
        cache_dir: Optional[Union[str, DiskResultCache]] = None,
    ):
        self.config = backend if backend is not None else LocalConfig()
        if not isinstance(self.config, BackendConfig):
            raise BackendError(f"backend must be a BackendConfig, got {type(self.config).__name__}")
        self.on_event = on_event
        if isinstance(cache_dir, str):
            cache_dir = DiskResultCache(cache_dir)
        self.disk_cache: Optional[DiskResultCache] = cache_dir
        self._jobs: Optional[JobExecutor] = None
        #: The one backend every run, scan and sweep of this session
        #: executes on, from here until close().
        self._backend: ExecutionBackend = self.config.create()
        # Attached for the session's whole lifetime, not just during
        # run(): a distributed fleet assembles while the coordinator
        # waits, and those WorkerJoined events must reach the observer.
        self._backend.set_event_sink(on_event)
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Release the backend (idempotent). Submitted jobs still
        queued are cancelled, a running one finishes first, and
        distributed workers are sent an orderly SHUTDOWN."""
        if self._closed:
            return
        if self._jobs is not None:
            self._jobs.shutdown(wait=True)
            self._jobs = None
        self._closed = True
        self._backend.close()

    @property
    def address(self) -> Optional[str]:
        """``host:port`` of the distributed coordinator, or ``None``
        for local execution."""
        return getattr(self._backend, "address", None)

    @property
    def backend_stats(self) -> Optional[Any]:
        """Distributed observability counters
        (:class:`~repro.runtime.distributed.BackendStats`), if any —
        including ``worker_cache_hits``, the cells served from
        worker-resident result caches across this session's runs. The
        per-run delta is on each report's
        ``extra["worker_cache_hits"]``; a second :meth:`run` against a
        live fleet reports nonzero hits while its bundle stays
        byte-identical (cache warmth never reaches bundle bytes)."""
        return getattr(self._backend, "stats", None)

    # -- jobs -----------------------------------------------------------

    def plan(self, request: RunRequest) -> SuitePlan:
        """The deduplicated execution plan for a request (no cells
        run): shared and read-only — a repeat of the request gets the
        same plan back, which its runs use too."""
        ids, overrides = validate_request(request)
        return self._suite_runner(None).plan(ids, overrides=overrides, smoke=request.smoke)

    def run(self, request: RunRequest, *, on_event: Optional[EventSink] = None) -> SuiteReport:
        """Execute a request: plan, run unique cells once, fan results
        out. Blocks until done; see :meth:`stream` for incremental
        consumption."""
        ids, overrides = validate_request(request)
        if self._closed:
            raise BackendError("session is closed")
        runner = self._suite_runner(on_event)
        return runner.run(ids, overrides=overrides, smoke=request.smoke)

    def stream(self, request: RunRequest) -> RunStream:
        """Run a request on a background thread, yielding its events
        as an iterator; ``stream.result()`` returns the report."""
        return RunStream(lambda sink: self.run(request, on_event=sink))

    def submit(self, request: RunRequest) -> JobHandle:
        """Queue a request without blocking and return a
        :class:`~repro.api.jobs.JobHandle` —
        ``handle.status()`` / ``handle.events()`` /
        ``handle.result()`` mirror the daemon client's surface.

        Jobs run one at a time on a session-owned worker thread (the
        session has a single backend); submission order is execution
        order. Invalid requests fail here, not in the job."""
        validate_request(request)
        if self._closed:
            raise BackendError("session is closed")
        if self._jobs is None:
            self._jobs = JobExecutor(
                lambda req, sink: self.run(req, on_event=sink),
                workers=1,
                name="session-jobs",
            )
        return LocalJobHandle(self._jobs.submit(request), self._jobs)

    def scan(
        self,
        request: "Any",
        *,
        on_event: Optional[EventSink] = None,
        window: Optional[int] = None,
    ) -> "Any":
        """Run a streaming wild scan through the session's backend.

        ``request`` is a :class:`~repro.wild.stream.ScanRequest` (or
        its ``to_dict`` document). The scan shares the session's
        execution context end to end: shards dispatch over the
        session backend (in-process, local pool or distributed fleet;
        ``on_event`` sees its chunk or cell events for the duration of
        the call), and the session's ``cache_dir`` disk cache stores
        each shard as it completes and serves unchanged shards across
        scans — a killed scan started again renders a byte-identical
        summary.
        Returns a :class:`~repro.wild.stream.ScanReport`; memory stays
        flat in the target count (see PERFORMANCE.md).
        """
        from repro.wild.stream import ScanRequest, StreamCoordinator

        if self._closed:
            raise BackendError("session is closed")
        if isinstance(request, Mapping):
            request = ScanRequest.from_dict(dict(request))
        if not isinstance(request, ScanRequest):
            raise InvalidOverride(
                f"scan request must be a ScanRequest or mapping, got {type(request).__name__}"
            )
        coordinator = StreamCoordinator(
            self._backend,
            request,
            disk_cache=self.disk_cache,
            sink=self._sink(on_event),
            window=window,
        )
        return coordinator.run()

    def run_experiment(
        self,
        experiment_id: str,
        *,
        smoke: bool = False,
        on_event: Optional[EventSink] = None,
        **overrides: Any,
    ) -> ExperimentResult:
        """Run a single experiment; keyword arguments are parameter
        overrides (``session.run_experiment("fig6", rtt_ms=50.0)``)."""
        request = RunRequest(
            experiments=(experiment_id,),
            overrides={experiment_id: overrides} if overrides else {},
            smoke=smoke,
        )
        report = self.run(request, on_event=on_event)
        return report.results[experiment_id]

    def write_bundle(self, report: SuiteReport, out_dir: Any) -> List[Any]:
        """Persist a report as a versioned bundle directory."""
        return write_bundle(report, out_dir)

    # -- single cells ---------------------------------------------------
    #
    # Below the experiment grain: one emulated connection (or a seed
    # sweep of one scenario). This is the notebook/debugging surface.

    def run_once(
        self,
        scenario: Scenario,
        seed: int = 0,
        artifact_level: Union[str, ArtifactLevel] = "trace",
    ) -> RunArtifacts:
        """Execute one ``(scenario, seed)`` cell; returns
        :class:`~repro.runtime.artifacts.RunArtifacts` at
        ``artifact_level`` (default ``trace``: stats + packet trace +
        qlog events)."""
        return self.run_repetitions(
            scenario,
            repetitions=1,
            base_seed=seed,
            artifact_level=artifact_level,
        )[0]

    def run_repetitions(
        self,
        scenario: Scenario,
        repetitions: int,
        base_seed: int = 0,
        artifact_level: Union[str, ArtifactLevel] = "stats",
    ) -> List[RunArtifacts]:
        """The paper's repeat-with-distinct-seeds loop for one
        scenario (seeds ``base_seed + i``), in seed order.

        At ``stats`` the cells go through the session's backend and its
        ``cache_dir`` store, like a suite's: stored cells are served,
        the rest run and are stored as their batch arrives. Anything
        richer is read in the process that ran the cell, so ``trace``
        and ``full`` cells run here, on every backend config, and are
        never stored. Bad input raises
        :class:`~repro.errors.InvalidOverride` before any cell runs."""
        if self._closed:
            raise BackendError("session is closed")
        level = _sweep_level(scenario, repetitions, base_seed, artifact_level)
        seeds = range(base_seed, base_seed + repetitions)
        if level is not LEVEL:
            runner = Runner()
            return [execute_cell(scenario, seed, level, runner=runner) for seed in seeds]
        results: List[RunArtifacts] = [None] * repetitions  # type: ignore[list-item]

        def put(index: int, artifacts: RunArtifacts, _source: str) -> None:
            # Pool, fleet and store results come back scenario-less.
            artifacts.scenario = scenario
            results[index] = artifacts

        items = work_items(((i, scenario, seed) for i, seed in enumerate(seeds)), self.disk_cache)
        run_work(self._backend, items, put, cache=self.disk_cache)
        return results

    # -- internals ------------------------------------------------------

    def _suite_runner(self, extra_sink: Optional[EventSink]) -> SuiteRunner:
        return SuiteRunner(
            backend=self._backend,
            on_event=self._sink(extra_sink),
            disk_cache=self.disk_cache,
        )

    def _sink(self, extra: Optional[EventSink]) -> Optional[EventSink]:
        sinks = [s for s in (self.on_event, extra) if s is not None]
        if not sinks:
            return None
        if len(sinks) == 1:
            return sinks[0]

        def fan_out(event: RunEvent) -> None:
            for sink in sinks:
                emit(sink, event)

        return fan_out


def _sweep_level(
    scenario: Any, repetitions: Any, base_seed: Any, artifact_level: Any
) -> ArtifactLevel:
    """Check a sweep's arguments and return its level. A float or bool
    seed would reach the store as a key of its own."""
    if not isinstance(scenario, Scenario):
        raise InvalidOverride(f"scenario must be a Scenario, got {type(scenario).__name__}")
    if not isinstance(base_seed, int) or isinstance(base_seed, bool):
        raise InvalidOverride(f"seed must be an int, got {base_seed!r}")
    if not isinstance(repetitions, int) or isinstance(repetitions, bool) or repetitions < 1:
        raise InvalidOverride(f"repetitions must be an int >= 1, got {repetitions!r}")
    try:
        return ArtifactLevel.coerce(artifact_level)
    except ValueError as exc:
        raise InvalidOverride(str(exc)) from None
