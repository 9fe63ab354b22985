"""Registry of all declared experiments.

Each experiment module builds an
:class:`~repro.experiments.spec.ExperimentSpec` and registers it at
import time; :func:`load_all` imports every module listed in
``repro.experiments.EXPERIMENT_INDEX`` so lookups work regardless of
what the caller imported first. The registry is the single source the
suite planner, the ``python -m repro`` CLI, and the generated
EXPERIMENTS.md index all read from.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Union

from repro.errors import UnknownExperiment
from repro.experiments.spec import ExperimentSpec


class ExperimentRegistry:
    """Id → :class:`ExperimentSpec` mapping with import-time population."""

    def __init__(self) -> None:
        self._specs: Dict[str, ExperimentSpec] = {}
        self._loaded = False

    def register(self, spec: ExperimentSpec) -> ExperimentSpec:
        """Register a spec (idempotent for the identical object;
        conflicting re-registration of an id is an error)."""
        existing = self._specs.get(spec.id)
        if existing is not None and existing is not spec:
            raise ValueError(f"experiment id {spec.id!r} registered twice")
        self._specs[spec.id] = spec
        return spec

    def load_all(self) -> None:
        """Import every experiment module so all specs self-register."""
        if self._loaded:
            return
        from repro.experiments import EXPERIMENT_INDEX

        for module_name in EXPERIMENT_INDEX.values():
            importlib.import_module(module_name)
        self._loaded = True

    def get(self, experiment_id: str) -> ExperimentSpec:
        self.load_all()
        try:
            return self._specs[experiment_id]
        except KeyError:
            raise UnknownExperiment(
                f"unknown experiment {experiment_id!r}; known: {self.ids()}"
            ) from None

    def ids(self) -> List[str]:
        self.load_all()
        return sorted(self._specs)

    def specs(self) -> List[ExperimentSpec]:
        """All specs in the paper's presentation order (figures first,
        then tables, each numerically)."""
        self.load_all()
        return sorted(self._specs.values(), key=lambda s: _paper_order(s.id))

    def __contains__(self, experiment_id: str) -> bool:
        self.load_all()
        return experiment_id in self._specs


def _paper_order(experiment_id: str) -> tuple:
    for prefix, rank in (("fig", 0), ("table", 1)):
        if experiment_id.startswith(prefix):
            suffix = experiment_id[len(prefix) :]
            if suffix.isdigit():
                return (rank, int(suffix), experiment_id)
    return (2, 0, experiment_id)


#: The process-wide registry every experiment module registers into.
REGISTRY = ExperimentRegistry()

register = REGISTRY.register


def get_spec(experiment: Union[str, ExperimentSpec]) -> ExperimentSpec:
    """Resolve an id (or pass a spec through)."""
    if isinstance(experiment, ExperimentSpec):
        return experiment
    return REGISTRY.get(experiment)
