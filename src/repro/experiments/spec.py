"""Declarative experiment specifications.

Every figure/table module used to own its whole pipeline — scenario
construction, runner lifecycle, repetition bookkeeping, and table
assembly — so overlapping sweeps (fig6 is the 9 ms column of fig12)
only shared work when a caller manually threaded one cache through.
An :class:`ExperimentSpec` splits each experiment into the two parts a
planner can reason about:

``cells(params)``
    The experiment's demand: the exact ``(scenario, seed)`` cells it
    needs, in aggregation order. A wild-measurement experiment's cells
    are the scan and study passes of :mod:`repro.wild.passes`; a model
    experiment returns none and computes in its aggregator.

``observe(artifacts)`` (required above ``stats`` level, and of wild
experiments)
    The map half of an experiment that reads more of a cell than its
    stats: a module-level function from one cell's
    :class:`~repro.runtime.RunArtifacts` (trace-level for a simulator
    cell, a :class:`~repro.wild.passes.PassOutcome` for a pass) to the
    small picklable value the aggregator needs from it. It runs in the
    process that executed the cell, immediately after it, so no packet
    trace, qlog or probe list ever crosses a process boundary.

``reads`` (beside ``observe``, required above ``stats`` level)
    Which of the four sources (:class:`~repro.runtime.Source`) of a
    simulator cell ``observe`` reads — client qlog, server qlog,
    client→server capture, server→client capture. ``artifact_level``
    says how far the observer reaches (``trace``: retained data;
    ``full``: the live endpoints too), ``reads`` what is retained for
    it: a cell keeps the union of its observers' declarations and
    nothing else, and reading an undeclared source fails the cell
    (:class:`~repro.errors.ObserveError`). Like ``observe`` it is a
    constant of the experiment module, not a parameter.

``answered`` (optional, beside ``observe``)
    When ``observe``'s value is final: a module-level predicate over
    one item of the spec's single declared source — a qlog event or a
    capture record — that holds once no later item can change what
    ``observe`` returns. A cell every experiment of which reads it this
    way ends there (the planner halts no cell a ``stats`` experiment
    reads): ``observe`` then reads a prefix of the run exactly as it
    reads the whole run, and the cell's stats are that prefix's.

``aggregate(results, params)``
    A pure function from executed cells (a :class:`CellResults` view —
    of artifacts, or of observed values for an observing spec) to the
    experiment's :class:`~repro.experiments.common.ExperimentResult`.

With demand declared up front, the
:class:`~repro.runtime.suite.SuiteRunner` can plan the union of cells
across experiments, dedupe shared cells, execute them once, and fan
the results back out. That planner is the only thing that executes a
spec; a spec never runs itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import InvalidOverride
from repro.experiments.common import ExperimentResult
from repro.runtime import ArtifactLevel, Cell, RunArtifacts, Source
from repro.wild.passes import ScanPass, StudyPass
from repro.wild.vantage import vantage

#: Resolved experiment parameters (defaults merged with overrides).
Params = Dict[str, Any]

#: Experiment kinds (documentation metadata, rendered in EXPERIMENTS.md).
KIND_MATRIX = "matrix"  #: simulator scenario-matrix sweep (MatrixRunner cells)
KIND_MODEL = "model"  #: analytic model / registry check, no simulation cells
KIND_WILD = "wild"  #: emulated internet measurement (scan/longitudinal)

_KINDS = (KIND_MATRIX, KIND_MODEL, KIND_WILD)


class CellResults(list):
    """One experiment's executed cells, in its declared cell order:
    stats-level :class:`RunArtifacts` for a ``stats`` spec, the values
    its ``observe`` returned for a spec above it."""

    @classmethod
    def in_memory(cls, artifacts: Sequence[RunArtifacts]) -> "CellResults":
        return cls(artifacts)

    def groups(self, size: int) -> Iterator[List[Any]]:
        """Consecutive chunks of ``size`` cells — the per-scenario
        repetition groups of a matrix laid out scenario-major."""
        if size <= 0:
            raise ValueError("group size must be positive")
        for start in range(0, len(self), size):
            yield self[start : start + size]


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one paper figure/table experiment."""

    id: str
    title: str
    #: Paper artifact this reproduces, e.g. ``"Figure 6"`` / ``"Table 1"``.
    paper: str
    #: ``matrix`` / ``model`` / ``wild`` — see module constants.
    kind: str
    #: Retention the experiment reads. ``stats`` aggregators receive
    #: the cells' artifacts; anything above is retained only inside the
    #: cell, for :attr:`observe`.
    artifact_level: ArtifactLevel
    #: ``params -> List[Cell]``: the cells to execute, aggregation-ordered.
    cells: Callable[[Params], List[Cell]]
    #: ``(CellResults, params) -> ExperimentResult``: pure aggregation.
    aggregate: Callable[[CellResults, Params], ExperimentResult]
    #: Default parameters; overrides must use these keys.
    defaults: Mapping[str, Any] = field(default_factory=dict)
    #: Parameter overrides for fast CI smoke runs (``--smoke``).
    smoke: Mapping[str, Any] = field(default_factory=dict)
    #: ``RunArtifacts -> small picklable value``, required above
    #: ``stats`` (see the module docs). Its qualified name is part of
    #: the cell's cache identity; changing what it *returns* is a
    #: ``CELL_CODE_VERSION`` bump like any simulator change.
    observe: Optional[Callable[[RunArtifacts], Any]] = None
    #: The sources (:class:`~repro.runtime.Source`) ``observe`` reads
    #: (see the module docs): non-empty exactly when ``artifact_level``
    #: is above ``stats``.
    reads: Tuple[Source, ...] = ()
    #: ``item -> bool`` over the one source in ``reads``: true once
    #: ``observe``'s value can no longer change (see the module docs).
    #: Its qualified name joins the cache identity of a cell it ends.
    answered: Optional[Callable[[Any], bool]] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"{self.id}: unknown kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.observe is None:
            if self.artifact_level is not ArtifactLevel.STATS or self.kind == KIND_WILD:
                raise ValueError(
                    f"{self.id}: a {self.kind} experiment at artifact level "
                    f"{self.artifact_level.value!r} needs an observe function (traces "
                    "and probe lists never leave the cell that made them)"
                )
        elif not _module_level(self.observe):
            raise ValueError(
                f"{self.id}: observe must be a module-level function "
                "(workers import it by name)"
            )
        unknown = [source for source in self.reads if not isinstance(source, Source)]
        if unknown:
            raise ValueError(
                f"{self.id}: unknown source(s) {unknown!r} in reads; expected members of "
                f"{[source.name for source in Source]}"
            )
        if bool(self.reads) != (self.artifact_level is not ArtifactLevel.STATS):
            raise ValueError(
                f"{self.id}: reads={[source.name for source in self.reads]} at artifact level "
                f"{self.artifact_level.value!r}: an experiment above 'stats' declares the "
                "sources its observe reads, and only such an experiment does"
            )
        if self.answered is not None:
            if self.observe is None:
                raise ValueError(f"{self.id}: answered says when an observe is final; none given")
            if len(self.reads) != 1:
                raise ValueError(
                    f"{self.id}: answered is a predicate over one source's items, but reads "
                    f"declares {len(self.reads)}"
                )
            if not _module_level(self.answered):
                raise ValueError(
                    f"{self.id}: answered must be a module-level function "
                    "(workers import it by name)"
                )
        for key in self.smoke:
            if key not in self.defaults:
                raise ValueError(
                    f"{self.id}: smoke override {key!r} is not a known parameter"
                )

    # -- parameters -----------------------------------------------------

    def resolve_params(
        self,
        overrides: Optional[Mapping[str, Any]] = None,
        *,
        smoke: bool = False,
    ) -> Params:
        """THE parameter-resolution path — ``SuiteRunner.plan`` (and so
        every ``repro.api`` session, the daemon and the CLI) resolves
        through this one method, so the surfaces agree by construction.

        Layering, lowest to highest precedence: declared ``defaults``,
        then ``smoke`` overrides (when ``smoke=True``), then explicit
        ``overrides``, which always win. Where and how wide a run
        executes is not a parameter: no execution context reaches
        ``params``. An unknown override key, or a value whose shape
        differs from its declared default (see :func:`_same_shape`),
        raises :class:`~repro.errors.InvalidOverride` — neither a typo
        nor a string where a number belongs may reach the simulator.
        """
        params: Params = dict(self.defaults)
        if smoke:
            params.update(self.smoke)
        for key, value in (overrides or {}).items():
            if key not in self.defaults:
                raise InvalidOverride(
                    f"{self.id}: unknown parameter {key!r}; known "
                    f"parameters: {sorted(self.defaults)}"
                )
            default = self.defaults[key]
            if not _same_shape(default, value):
                raise InvalidOverride(
                    f"{self.id}: parameter {key!r} expects a value shaped like "
                    f"its default {_brief(default)!r}, got {value!r}"
                )
            params[key] = value
        return params

    def plan_cells(self, params: Params) -> List[Cell]:
        """The (scenario, seed) cells this experiment needs."""
        return list(self.cells(params))

    # -- introspection --------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """Registry metadata (EXPERIMENTS.md / ``repro list``)."""
        return {
            "id": self.id,
            "title": self.title,
            "paper": self.paper,
            "kind": self.kind,
            "artifact_level": self.artifact_level.value,
            "reads": [source.describe() for source in self.reads],
            "ends": _summary(self.answered),
            "defaults": {k: _brief(v) for k, v in self.defaults.items()},
        }


def _same_shape(default: Any, value: Any) -> bool:
    """Whether an override can stand in for its declared default: a
    finite number for a number (``bool`` is not a number), ``str`` for
    ``str``, ``bool`` for ``bool``, and for a tuple a list/tuple whose
    items each match the tuple's first item. ``None`` and empty-tuple
    defaults declare no shape."""
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, (int, float)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return isinstance(value, int) or math.isfinite(value)
    if isinstance(default, str):
        return isinstance(value, str)
    if isinstance(default, tuple) and default:
        return isinstance(value, (list, tuple)) and all(
            _same_shape(default[0], item) for item in value
        )
    return True


def _module_level(fn: Callable[..., Any]) -> bool:
    """Whether workers can import ``fn`` by its qualified name (a
    lambda or nested function's name holds a ``<``)."""
    return "<" not in getattr(fn, "__qualname__", "<")


def _summary(fn: Optional[Callable[..., Any]]) -> Optional[str]:
    """The first line of ``fn``'s docstring as a listing cell:
    ``"Client FIN."`` reads ``"client FIN"``."""
    if fn is None or not fn.__doc__:
        return None
    line = fn.__doc__.strip().splitlines()[0].rstrip(".")
    return line[:1].lower() + line[1:]


def _brief(value: Any) -> Any:
    """Defaults as shown in listings (tuples become lists for JSON)."""
    if isinstance(value, tuple):
        return list(value)
    return value


def _check_wild(params: Params, vantage_names: Sequence[str]) -> None:
    """A wild experiment's declared ranges, checked where its passes are
    planned (``SuiteRunner.plan`` reports them as
    :class:`~repro.errors.InvalidOverride`): nothing mis-shaped — a
    ``list_size`` or ``days`` that is not an integer >= 1, an unknown
    vantage or scan ``engine`` — is ever dispatched."""
    from repro.wild.stream.coordinator import PROBE_ENGINES

    for name in ("list_size", "days"):
        if name in params and (not isinstance(params[name], int) or params[name] < 1):
            raise ValueError(f"{name} must be an integer >= 1, got {params[name]!r}")
    if "engine" in params and params["engine"] not in PROBE_ENGINES:
        raise ValueError(
            f"unknown scan engine {params['engine']!r}; expected one of {PROBE_ENGINES}"
        )
    if isinstance(vantage_names, str) or not vantage_names:
        raise ValueError(f"vantage_names must be a non-empty list, got {vantage_names!r}")
    for name in vantage_names:
        try:
            vantage(name)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None


def scan_cells(params: Params, vantage_names: Sequence[str], days: int = 1) -> List[Cell]:
    """``cells`` of a toplist-scan experiment: a
    :class:`~repro.wild.passes.ScanPass` per vantage × day, vantage-major."""
    _check_wild(params, vantage_names)
    return [
        Cell(ScanPass(params["list_size"], name, day, params["engine"]), params["seed"])
        for name in vantage_names
        for day in range(days)
    ]


def study_cells(
    params: Params,
    vantage_names: Sequence[str],
    outages: Optional[Mapping[str, Tuple[Tuple[int, int], ...]]] = None,
) -> List[Cell]:
    """``cells`` of a longitudinal experiment: a
    :class:`~repro.wild.passes.StudyPass` per vantage; ``outages`` maps
    a vantage to its sample-free ``(start, stop)`` minute ranges."""
    _check_wild(params, vantage_names)
    return [
        Cell(StudyPass(name, params["days"], (outages or {}).get(name, ())), params["seed"])
        for name in vantage_names
    ]


def expand_cells(
    scenarios: Sequence[Any], repetitions: int, base_seed: int = 0
) -> List[Cell]:
    """Scenario-major (scenario × repetition) cell expansion with the
    canonical ``base_seed + repetition`` seed assignment — the layout
    :meth:`CellResults.groups` undoes on the aggregation side."""
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    return [
        Cell(scenario, base_seed + rep)
        for scenario in scenarios
        for rep in range(repetitions)
    ]
