"""Table 1: instant ACK deployment per CDN on the Tranco Top 1M.

"Domains from the Tranco Top 1M hosted by CDNs, share of instant ACK
deployment, and maximum difference between measurements. Deployment
share and maximum variation are aggregated across vantage points and
repetitions."
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import register
from repro.experiments.spec import (
    CellResults,
    ExperimentSpec,
    KIND_WILD,
    Params,
    wild_cells,
)
from repro.runtime import (
    ArtifactLevel,
    get_shared_input,
    parallel_map,
    set_shared_input,
)
from repro.wild.asdb import Cdn
from repro.wild.qscanner import QScanner, deployment_share, scan_with_engine
from repro.wild.tranco import TrancoGenerator
from repro.wild.vantage import VANTAGE_POINTS, vantage

def _measure_pass(
    vantage_name: str, day: int, list_size: int, seed: int, engine: str
):
    """One vantage × day scan pass → per-CDN deployment shares.

    A whole pass runs inside one task so the batch engine's per-pass
    rng stream is independent of worker count and task interleaving.
    The domain list arrives via the runtime's shared-input channel.
    """
    domains = get_shared_input()
    if domains is None:  # pragma: no cover - non-initialized pool fallback
        domains = TrancoGenerator(list_size=list_size, seed=seed).quic_domains()
    scanner = QScanner(vantage(vantage_name), seed=seed)
    return deployment_share(
        scan_with_engine(scanner, domains, day=day, engine=engine)
    )

PAPER_SHARES = {
    Cdn.AKAMAI: (533, 32.2, 12.9),
    Cdn.AMAZON: (4338, 41.0, 18.0),
    Cdn.CLOUDFLARE: (247407, 99.9, 0.1),
    Cdn.FASTLY: (3960, 0.0, 0.0),
    Cdn.GOOGLE: (6062, 11.5, 11.5),
    Cdn.META: (112, 0.0, 0.0),
    Cdn.MICROSOFT: (34, 0.0, 0.0),
    Cdn.OTHERS: (26404, 21.5, 2.3),
}


def _streamed_measurements(
    params: Params, vantage_names: List[str]
) -> tuple:
    """The streamed engine's cross-validation path: the same scan
    through :mod:`repro.wild.stream` shards instead of in-memory
    passes.

    With the analytic engine the per-probe rng is keyed by
    ``(seed, vantage, day, domain)`` — independent of sharding — so
    counts and per-pass deployment shares are *exactly* equal to the
    in-memory path (identical integer tallies, identical divisions);
    only sketched percentiles carry the documented alpha tolerance.
    The batch engine draws one rng stream per pass, which sharding
    necessarily splits: statistically equivalent, not draw-identical.
    """
    from repro.runtime.backend import LocalBackend
    from repro.wild.stream import ScanRequest, StreamCoordinator

    request = ScanRequest(
        source={
            "kind": "tranco",
            "list_size": params["list_size"],
            "seed": params["seed"],
        },
        shard_size=min(int(params["list_size"]), 5_000),
        vantage_names=tuple(vantage_names),
        days=params["days"],
        seed=params["seed"],
        probe_engine=params["engine"],
    )
    with LocalBackend(params["workers"]) as backend:
        report = StreamCoordinator(backend, request).run()
    counts = {Cdn(value): n for value, n in report.sketch.cdn_domains.items()}
    return report.deployment_measurements(), counts


def aggregate(results: CellResults, params: Params) -> ExperimentResult:
    list_size, days, seed = params["list_size"], params["days"], params["seed"]
    vantage_names = params["vantage_names"]
    if vantage_names is None:
        vantage_names = sorted(VANTAGE_POINTS)
    if params["streamed"]:
        measurements, counts = _streamed_measurements(params, vantage_names)
    else:
        generator = TrancoGenerator(list_size=list_size, seed=seed)
        domains = generator.quic_domains()
        counts = {}
        for domain in domains:
            counts[domain.cdn] = counts.get(domain.cdn, 0) + 1
        tasks = [
            (vantage_name, day, list_size, seed, params["engine"])
            for vantage_name in vantage_names
            for day in range(days)
        ]
        #: shares[(vantage, day)][cdn] = share
        measurements = parallel_map(
            _measure_pass,
            tasks,
            workers=params["workers"],
            initializer=set_shared_input,
            initargs=(domains,),
        )
    rows: List[List[object]] = []
    for cdn in Cdn:
        shares = [m.get(cdn, 0.0) * 100.0 for m in measurements]
        max_share = max(shares) if shares else 0.0
        variation = (max(shares) - min(shares)) if shares else 0.0
        paper_domains, paper_share, paper_variation = PAPER_SHARES[cdn]
        rows.append(
            [
                cdn.value,
                counts.get(cdn, 0),
                round(max_share, 1),
                paper_share,
                round(variation, 1),
                paper_variation,
            ]
        )
    return ExperimentResult(
        experiment_id="table1",
        title=(
            f"IACK deployment per CDN ({list_size} domains, "
            f"{len(vantage_names)} vantages x {days} days)"
        ),
        headers=[
            "CDN", "domains", "enabled max [%]", "paper [%]",
            "variation [%]", "paper variation [%]",
        ],
        rows=rows,
        paper_reference={
            "shares": {c.value: v for c, v in PAPER_SHARES.items()},
        },
    )


SPEC = register(
    ExperimentSpec(
        id="table1",
        title="Instant ACK deployment per CDN (Tranco scan)",
        paper="Table 1",
        kind=KIND_WILD,
        artifact_level=ArtifactLevel.STATS,
        cells=wild_cells,
        aggregate=aggregate,
        defaults={
            "list_size": 100_000,
            "days": 2,
            "vantage_names": None,
            "seed": 0,
            "workers": 0,
            "engine": "analytic",
            "streamed": False,
        },
        smoke={"list_size": 5_000, "days": 1, "vantage_names": ("Sao Paulo",)},
    )
)
