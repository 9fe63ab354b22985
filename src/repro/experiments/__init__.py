"""One module per table and figure of the paper's evaluation.

Every module declares an :class:`~repro.experiments.spec
.ExperimentSpec` (its id, title, paper reference, required artifact
level, ``cells()`` demand, and pure ``aggregate()``) and registers it
in :data:`~repro.experiments.registry.REGISTRY`. The only way to run
any selection is the :mod:`repro.api` façade (sessions, typed backend
configs, streaming run events, versioned bundles — see API.md); the
``python -m repro`` CLI is a thin client of it. A module declares its
experiment and never runs it. EXPERIMENTS.md is generated from the
registry. Benchmarks under ``benchmarks/`` run one experiment each
through ``repro.api.run_experiment``.
"""

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import REGISTRY, get_spec
from repro.experiments.spec import CellResults, ExperimentSpec

__all__ = [
    "CellResults",
    "ExperimentResult",
    "ExperimentSpec",
    "REGISTRY",
    "get_spec",
]

#: Experiment id -> module name, for discovery by the CLI example.
EXPERIMENT_INDEX = {
    "fig2": "repro.experiments.fig2_pto_evolution",
    "fig4": "repro.experiments.fig4_sweet_spot",
    "fig5": "repro.experiments.fig5_ttfb_amplification",
    "fig6": "repro.experiments.fig6_server_flight_loss",
    "fig7": "repro.experiments.fig7_client_flight_loss",
    "fig8": "repro.experiments.fig8_ack_sh_delay",
    "fig9": "repro.experiments.fig9_cloudflare_timeseries",
    "fig10": "repro.experiments.fig10_ack_delay_field",
    "fig11": "repro.experiments.fig11_rtt_samples",
    "fig12": "repro.experiments.fig12_server_flight_loss_rtts",
    "fig13": "repro.experiments.fig13_client_flight_loss_rtts",
    "fig14": "repro.experiments.fig14_vantage_cdfs",
    "fig15": "repro.experiments.fig15_cloudflare_locations",
    "fig16": "repro.experiments.fig16_pto_improvement",
    "table1": "repro.experiments.table1_cdn_deployment",
    "table2": "repro.experiments.table2_guidelines",
    "table3": "repro.experiments.table3_server_ack_delay",
    "table4": "repro.experiments.table4_client_defaults",
    "table5": "repro.experiments.table5_as_numbers",
    # Recovery-lab sweeps (post-paper extensions; see the "Recovery
    # profiles" section of API.md).
    "lab_cc": "repro.experiments.lab_cc_server_flight_loss",
    "lab_rtt": "repro.experiments.lab_rtt_profiles",
    "lab_ge": "repro.experiments.lab_ge_bursty_loss",
}
