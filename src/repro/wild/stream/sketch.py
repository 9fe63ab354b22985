"""Mergeable scan sketches — the coordinator-side aggregation state.

A streaming scan never holds full :class:`~repro.wild.qscanner
.ProbeResult` lists: every shard folds its probes into a
:class:`ScanSketch` worker-side, the coordinator merges shard sketches
as they arrive, and the final summary is read off the merged sketch.

The merge is **exactly order-independent**: all sketch state is either
integer counts (target/probe/per-CDN/per-pass tallies, the quantile
histogram bins) or exact float ``min``/``max`` — no floating-point
sums whose rounding would depend on arrival order. Two scans that
cover the same shards therefore produce *byte-identical* summaries no
matter how the fleet interleaved them, which is what lets the
kill-and-restart drill assert equality instead of tolerance.

Percentiles use a DDSketch-style log-spaced histogram
(:class:`QuantileSketch`): a value lands in bin
``ceil(log_gamma(value))`` with ``gamma = (1+alpha)/(1-alpha)``, so
any quantile estimate is within relative error ``alpha`` (default 1%)
of the true order statistic — the documented sketch tolerance. Counts
and deployment shares are exact (they are pure integer tallies).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Bump when the sketch state or summary layout changes — part of every
#: scan fingerprint and disk-cache key, so stale shard outcomes never
#: merge into a newer scan.
SKETCH_VERSION = 1

#: The probe metrics every scan sketches.
METRICS = ("rtt_ms", "ack_to_sh_delay_ms", "ack_delay_field_ms")

#: Default relative accuracy of quantile estimates (1%).
DEFAULT_ALPHA = 0.01

#: Values at or below this are tallied in the exact zero bucket
#: (coalesced ACK–SH delays are exactly 0.0 and common).
_ZERO_EPSILON = 1e-9


class QuantileSketch:
    """DDSketch-style log-binned quantile sketch over ``[0, inf)``.

    State is a ``{bin_index: count}`` dict plus an exact zero bucket
    and exact ``min``/``max``; :meth:`merge` adds counts bin-wise, so
    merging is commutative, associative, and exact.
    """

    __slots__ = ("alpha", "_gamma", "_log_gamma", "bins", "zero_count", "count", "min", "max")

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self.bins: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def add(self, value: float) -> None:
        self.extend((value,))

    def extend(self, values: Sequence[float]) -> None:
        """Add every value of ``values``: the state is what as many
        :meth:`add` calls, in any order, would leave."""
        if not values:
            return
        low = min(values)
        if low < 0.0:
            raise ValueError(f"quantile sketch values must be >= 0, got {low}")
        high = max(values)
        self.count += len(values)
        if self.min is None or low < self.min:
            self.min = low
        if self.max is None or high > self.max:
            self.max = high
        bins = self.bins
        log_gamma = self._log_gamma
        zeros = 0
        for value in values:
            if value <= _ZERO_EPSILON:
                zeros += 1
            else:
                index = math.ceil(math.log(value) / log_gamma)
                bins[index] = bins.get(index, 0) + 1
        self.zero_count += zeros

    def merge(self, other: "QuantileSketch") -> None:
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge quantile sketches with different accuracy "
                f"({self.alpha} vs {other.alpha})"
            )
        self.count += other.count
        self.zero_count += other.zero_count
        for index, n in other.bins.items():
            self.bins[index] = self.bins.get(index, 0) + n
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile estimate (relative error <= ``alpha``),
        clamped into the exact observed ``[min, max]``; ``None`` when
        the sketch is empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0 or self.min is None or self.max is None:
            return None
        rank = q * (self.count - 1)
        seen = self.zero_count
        if rank < seen:
            return 0.0
        estimate = self.max
        for index in sorted(self.bins):
            seen += self.bins[index]
            if rank < seen:
                # Midpoint of the bin (gamma^(i-1), gamma^i].
                estimate = 2.0 * self._gamma**index / (self._gamma + 1.0)
                break
        return min(max(estimate, self.min), self.max)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "alpha": self.alpha,
            "bins": {str(index): n for index, n in sorted(self.bins.items())},
            "zero_count": self.zero_count,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "QuantileSketch":
        sketch = cls(alpha=float(doc["alpha"]))
        sketch.bins = {int(index): int(n) for index, n in doc.get("bins", {}).items()}
        sketch.zero_count = int(doc.get("zero_count", 0))
        sketch.count = int(doc.get("count", 0))
        sketch.min = doc.get("min")
        sketch.max = doc.get("max")
        return sketch


#: One per-pass tally key: (vantage name, day, cdn value).
PassKey = Tuple[str, int, str]


class ScanSketch:
    """The complete mergeable aggregation state of one scan.

    Folds :class:`~repro.wild.qscanner.ProbeResult`-shaped probes and
    per-domain facts into integer tallies plus per-metric
    :class:`QuantileSketch` histograms. All counts are exact; only
    quantile *estimates* carry the ``alpha`` relative error.
    """

    __slots__ = (
        "version",
        "alpha",
        "targets",
        "quic_targets",
        "probes",
        "iack_probes",
        "coalesced_probes",
        "cdn_domains",
        "cdn_iack_domains",
        "pass_domains",
        "pass_iack",
        "quantiles",
    )

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        self.version = SKETCH_VERSION
        self.alpha = alpha
        self.targets = 0  # every rank scanned, QUIC or not
        self.quic_targets = 0
        self.probes = 0
        self.iack_probes = 0
        self.coalesced_probes = 0
        self.cdn_domains: Dict[str, int] = {}
        #: Domains with IACK observed in *any* pass (per-domain OR,
        #: computed shard-side where all of a domain's passes live).
        self.cdn_iack_domains: Dict[str, int] = {}
        self.pass_domains: Dict[PassKey, int] = {}
        self.pass_iack: Dict[PassKey, int] = {}
        self.quantiles: Dict[str, QuantileSketch] = {
            metric: QuantileSketch(alpha) for metric in METRICS
        }

    # -- folding (shard-side) -------------------------------------------

    def observe_target(self, cdn_value: Optional[str]) -> None:
        """Count one toplist entry (``cdn_value`` None = no QUIC)."""
        self.observe_targets(1, () if cdn_value is None else (cdn_value,))

    def observe_targets(self, targets: int, cdn_values: Iterable[str]) -> None:
        """Count ``targets`` toplist entries, those answering QUIC by
        their CDN's value in ``cdn_values``."""
        self.targets += targets
        cdn_domains = self.cdn_domains
        for cdn_value in cdn_values:
            self.quic_targets += 1
            cdn_domains[cdn_value] = cdn_domains.get(cdn_value, 0) + 1

    def observe_probe(self, probe: Any) -> None:
        """Fold one probe (any object with the ProbeResult fields)."""
        self.observe_pass(
            probe.vantage,
            probe.day,
            (probe.cdn.value,),
            (probe.rtt_ms,),
            (probe.iack_observed,),
            (probe.coalesced,),
            (probe.ack_to_sh_delay_ms,),
            (probe.ack_delay_field_ms,),
        )

    def observe_pass(
        self,
        vantage: str,
        day: int,
        cdn_values: Sequence[str],
        rtt_ms: Sequence[float],
        iack_observed: Sequence[bool],
        coalesced: Sequence[bool],
        ack_to_sh_delay_ms: Sequence[float],
        ack_delay_field_ms: Sequence[float],
    ) -> None:
        """Fold the probes of one (vantage, day) pass, given as columns
        of equal length: probe ``i`` is ``cdn_values[i]``,
        ``rtt_ms[i]``, and so on."""
        pass_domains = self.pass_domains
        pass_iack = self.pass_iack
        iack_probes = 0
        for cdn_value, observed in zip(cdn_values, iack_observed):
            key = (vantage, day, cdn_value)
            pass_domains[key] = pass_domains.get(key, 0) + 1
            if observed:
                iack_probes += 1
                pass_iack[key] = pass_iack.get(key, 0) + 1
        self.probes += len(cdn_values)
        self.iack_probes += iack_probes
        self.coalesced_probes += sum(map(bool, coalesced))
        quantiles = self.quantiles
        quantiles["rtt_ms"].extend(rtt_ms)
        quantiles["ack_to_sh_delay_ms"].extend(ack_to_sh_delay_ms)
        quantiles["ack_delay_field_ms"].extend(ack_delay_field_ms)

    def observe_domain_iack(self, cdn_value: str, observed_any: bool) -> None:
        """Record one domain's OR-over-all-passes IACK verdict."""
        if observed_any:
            self.cdn_iack_domains[cdn_value] = self.cdn_iack_domains.get(cdn_value, 0) + 1

    # -- merging (coordinator-side) -------------------------------------

    def merge(self, other: "ScanSketch") -> None:
        if other.version != self.version:
            raise ValueError(
                f"cannot merge sketch version {other.version} into {self.version}"
            )
        if other.alpha != self.alpha:
            raise ValueError("cannot merge sketches with different quantile accuracy")
        self.targets += other.targets
        self.quic_targets += other.quic_targets
        self.probes += other.probes
        self.iack_probes += other.iack_probes
        self.coalesced_probes += other.coalesced_probes
        for table_name in ("cdn_domains", "cdn_iack_domains", "pass_domains", "pass_iack"):
            mine = getattr(self, table_name)
            theirs = getattr(other, table_name)
            for key, n in theirs.items():
                mine[key] = mine.get(key, 0) + n
        for metric, sketch in other.quantiles.items():
            self.quantiles[metric].merge(sketch)

    @classmethod
    def merged(cls, sketches: Iterable["ScanSketch"], alpha: float = DEFAULT_ALPHA) -> "ScanSketch":
        total = cls(alpha)
        for sketch in sketches:
            total.merge(sketch)
        return total

    # -- reading ---------------------------------------------------------

    def deployment_shares(self) -> Dict[Tuple[str, int], Dict[str, float]]:
        """Per-(vantage, day) IACK deployment share per CDN — exactly
        :func:`repro.wild.qscanner.deployment_share` applied to that
        pass's full probe list (each domain is probed once per pass, so
        the per-domain OR degenerates to the probe tally)."""
        shares: Dict[Tuple[str, int], Dict[str, float]] = {}
        for (vantage_name, day, cdn_value), domains in self.pass_domains.items():
            iack = self.pass_iack.get((vantage_name, day, cdn_value), 0)
            shares.setdefault((vantage_name, day), {})[cdn_value] = (
                iack / domains if domains else 0.0
            )
        return shares

    def summary(self) -> Dict[str, Any]:
        """The canonical JSON-safe scan summary.

        Deterministic in the sketch *state* (sorted keys, shares
        computed from integer tallies at read time), so equal sketches
        render byte-identical JSON.
        """
        cdns: Dict[str, Any] = {}
        for cdn_value in sorted(self.cdn_domains):
            domains = self.cdn_domains[cdn_value]
            iack = self.cdn_iack_domains.get(cdn_value, 0)
            cdns[cdn_value] = {
                "domains": domains,
                "iack_domains": iack,
                "share_pct": round(100.0 * iack / domains, 4) if domains else 0.0,
            }
        metrics: Dict[str, Any] = {}
        for metric in METRICS:
            sketch = self.quantiles[metric]
            metrics[metric] = {
                "count": sketch.count,
                "min": sketch.min,
                "p50": sketch.quantile(0.50),
                "p90": sketch.quantile(0.90),
                "p99": sketch.quantile(0.99),
                "max": sketch.max,
            }
        return {
            "sketch_version": self.version,
            "alpha": self.alpha,
            "targets": self.targets,
            "quic_targets": self.quic_targets,
            "probes": self.probes,
            "iack_probes": self.iack_probes,
            "coalesced_probes": self.coalesced_probes,
            "cdns": cdns,
            "metrics": metrics,
        }

    # -- wire form --------------------------------------------------------

    @staticmethod
    def _encode_pass_table(table: Dict[PassKey, int]) -> List[List[Any]]:
        return [
            [vantage_name, day, cdn_value, n]
            for (vantage_name, day, cdn_value), n in sorted(table.items())
        ]

    @staticmethod
    def _decode_pass_table(rows: Iterable[Iterable[Any]]) -> Dict[PassKey, int]:
        return {(str(v), int(d), str(c)): int(n) for v, d, c, n in rows}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sketch_version": self.version,
            "alpha": self.alpha,
            "targets": self.targets,
            "quic_targets": self.quic_targets,
            "probes": self.probes,
            "iack_probes": self.iack_probes,
            "coalesced_probes": self.coalesced_probes,
            "cdn_domains": dict(sorted(self.cdn_domains.items())),
            "cdn_iack_domains": dict(sorted(self.cdn_iack_domains.items())),
            "pass_domains": self._encode_pass_table(self.pass_domains),
            "pass_iack": self._encode_pass_table(self.pass_iack),
            "quantiles": {metric: self.quantiles[metric].to_dict() for metric in METRICS},
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ScanSketch":
        version = int(doc.get("sketch_version", -1))
        if version != SKETCH_VERSION:
            raise ValueError(f"unsupported sketch version {version}")
        sketch = cls(alpha=float(doc["alpha"]))
        sketch.targets = int(doc["targets"])
        sketch.quic_targets = int(doc["quic_targets"])
        sketch.probes = int(doc["probes"])
        sketch.iack_probes = int(doc["iack_probes"])
        sketch.coalesced_probes = int(doc["coalesced_probes"])
        sketch.cdn_domains = {str(k): int(n) for k, n in doc["cdn_domains"].items()}
        sketch.cdn_iack_domains = {str(k): int(n) for k, n in doc["cdn_iack_domains"].items()}
        sketch.pass_domains = cls._decode_pass_table(doc["pass_domains"])
        sketch.pass_iack = cls._decode_pass_table(doc["pass_iack"])
        sketch.quantiles = {
            metric: QuantileSketch.from_dict(doc["quantiles"][metric]) for metric in METRICS
        }
        return sketch

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScanSketch):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __getstate__(self) -> Dict[str, Any]:
        return self.to_dict()

    def __setstate__(self, state: Dict[str, Any]) -> None:
        restored = ScanSketch.from_dict(state)
        for slot in ScanSketch.__slots__:
            setattr(self, slot, getattr(restored, slot))
