"""The public error taxonomy of the ``repro.api`` façade.

Every failure a caller of :class:`repro.api.Session` can provoke maps
to exactly one exception type here, so embedding code (services,
notebooks, the CLI) can branch on *what went wrong* instead of
pattern-matching message strings. Each type also carries the distinct
process exit code the CLI uses (tracebacks are for bugs; predictable
failures get predictable codes).

The classes double-inherit from the builtin exception the pre-façade
code raised (``KeyError``, ``ValueError``, ``RuntimeError``), so code
written against the historical behavior keeps working while new code
catches the precise type.

This module deliberately imports nothing from ``repro`` — the
experiment, runtime, and analysis layers all raise these types, and a
dependency-free taxonomy can never participate in an import cycle.
"""

from __future__ import annotations

__all__ = [
    "BackendError",
    "BundleVersionError",
    "InvalidOverride",
    "ObserveError",
    "ReproError",
    "ServiceError",
    "UnknownExperiment",
    "UnknownJob",
    "WorkerAuthError",
]


class ReproError(Exception):
    """Base of every structured ``repro.api`` failure.

    ``exit_code`` is the process exit status ``python -m repro`` maps
    the exception to — one distinct code per failure class, all
    disjoint from 0 (success), 1 (unexpected crash), and 2 (argparse
    usage errors). Code 8 is retired (it named a checkpoint mismatch;
    crash recovery now has no failure of its own) and is not reused.
    """

    exit_code = 1


class UnknownExperiment(ReproError, KeyError):
    """An experiment id that is not in the registry was selected."""

    exit_code = 3

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument, which would wrap the
        # message in quotes; report it verbatim like every other error.
        return Exception.__str__(self)


class InvalidOverride(ReproError, ValueError):
    """A parameter override used a key the experiment does not declare,
    targeted an experiment outside the run's selection, or the
    selection itself was malformed (an experiment selected twice)."""

    exit_code = 4


class BackendError(ReproError, RuntimeError):
    """An execution backend failed: the distributed fleet never
    assembled, every worker was lost mid-run, a remote chunk raised, or
    a chunk could not be dispatched at all."""

    exit_code = 5


class WorkerAuthError(BackendError):
    """Workers reached the coordinator but failed the mutual HMAC
    handshake — almost always a shared-secret mismatch."""

    exit_code = 6


class BundleVersionError(ReproError, ValueError):
    """A result bundle declares a schema version this code cannot
    read (newer than :data:`repro.schema.BUNDLE_SCHEMA_VERSION`, or
    not an integer)."""

    exit_code = 7


class ServiceError(ReproError, RuntimeError):
    """The ``repro serve`` job surface failed: the daemon is
    unreachable, it answered with an error document (malformed
    request, protocol mismatch; an unknown job is the subclass
    :class:`UnknownJob`), a submitted job was
    cancelled before producing a result, or the local job executor was
    already shut down."""

    exit_code = 9


class UnknownJob(ServiceError):
    """A job id the job table does not hold: never submitted, or
    evicted once newer finished jobs took its place (a table keeps its
    last :data:`repro.api.jobs.FINISHED_JOBS_KEPT` finished jobs). The
    daemon answers it with HTTP 404."""


class ObserveError(ReproError, RuntimeError):
    """An experiment's ``observe`` raised on a cell, or returned a value
    that cannot be pickled: the experiment's bug, named the same way
    (experiment, scenario, seed) wherever the cell ran. All strings, so
    it crosses any process boundary intact."""

    exit_code = 10

    def __init__(self, experiment_id: str, scenario: str, seed: int, cause: str):
        super().__init__(experiment_id, scenario, seed, cause)
        self.experiment_id, self.scenario, self.seed, self.cause = self.args

    def __str__(self) -> str:
        return "{}: observe failed on {} seed {}: {}".format(*self.args)
