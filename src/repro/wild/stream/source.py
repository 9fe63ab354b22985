"""Lazy target sources for the streaming scan pipeline.

A :class:`TargetSource` never materializes its target list: it knows
its ``size``, yields any half-open index range on demand, and — the
property the whole pipeline leans on — describes itself as a tiny
JSON-safe ``spec()`` dict from which :func:`source_from_spec` rebuilds
an identical source *in another process*. Shards therefore travel the
wire as ``(spec, start, stop)`` descriptors of a few hundred bytes;
workers regenerate their targets locally, and the coordinator's memory
stays flat no matter how many targets the scan covers.

Determinism contract: for a fixed spec, ``iter_range(a, b)`` yields
exactly the entries positions ``a..b-1`` of the full iteration would —
shardings of the same source always cover the same targets.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Protocol, Tuple, runtime_checkable

from repro.errors import InvalidOverride
from repro.wild.asdb import AsDatabase, Cdn
from repro.wild.tranco import TrancoDomain, TrancoGenerator, _mix64


@runtime_checkable
class TargetSource(Protocol):
    """What the coordinator and shard tasks need from a target list."""

    @property
    def size(self) -> int:
        """Total number of targets (known up front, never materialized)."""
        ...

    def spec(self) -> Dict[str, Any]:
        """JSON-safe self-description; ``source_from_spec(spec())``
        rebuilds an identical source anywhere."""
        ...

    def iter_range(self, start: int, stop: int) -> Iterator[TrancoDomain]:
        """Targets at positions ``[start, stop)`` (0-based), lazily."""
        ...


class TrancoSource:
    """The paper's synthetic Tranco toplist as a streaming source.

    Position ``i`` is rank ``i + 1``; the Feistel-permuted
    :class:`~repro.wild.tranco.TrancoGenerator` makes any rank range
    O(range) to produce with no full-list state.
    """

    KIND = "tranco"

    def __init__(self, list_size: int = TrancoGenerator.PAPER_LIST_SIZE, seed: int = 20240806):
        self.generator = TrancoGenerator(list_size=list_size, seed=seed)

    @property
    def size(self) -> int:
        return self.generator.list_size

    def spec(self) -> Dict[str, Any]:
        return {
            "kind": self.KIND,
            "list_size": self.generator.list_size,
            "seed": self.generator.seed,
        }

    def iter_range(self, start: int, stop: int) -> Iterator[TrancoDomain]:
        _check_range(start, stop, self.size)
        if start == stop:
            return iter(())
        return self.generator.iter_domains(start + 1, stop)


class SyntheticSource:
    """A cheap seeded target population for scale and chaos drills.

    Each position hashes independently (SplitMix64 over
    ``position ^ seed``) to decide QUIC-ness and CDN, so generation is
    O(1) per target with no toplist bookkeeping — the source of choice
    for the million-target RSS-flatness and SIGKILL-restart drills where
    toplist fidelity is irrelevant but volume is the point.
    ``quic_permille`` controls the answering share (default 300‰,
    roughly the paper's Tranco ratio).
    """

    KIND = "synthetic"

    def __init__(self, count: int, seed: int = 0, quic_permille: int = 300):
        if count <= 0:
            raise InvalidOverride("synthetic source needs a positive target count")
        if not 0 <= quic_permille <= 1000:
            raise InvalidOverride("quic_permille must be in [0, 1000]")
        self.count = count
        self.seed = seed
        self.quic_permille = quic_permille
        self._asdb = AsDatabase()
        #: ``(cdn, its ASNs)`` for every CDN, in the order a draw picks.
        self._hosts = tuple((cdn, self._asdb.asns_for_cdn(cdn)) for cdn in Cdn)
        self._seed_mix = _mix64(seed ^ 0x5EED)

    @property
    def size(self) -> int:
        return self.count

    def spec(self) -> Dict[str, Any]:
        return {
            "kind": self.KIND,
            "count": self.count,
            "seed": self.seed,
            "quic_permille": self.quic_permille,
        }

    def iter_range(self, start: int, stop: int) -> Iterator[TrancoDomain]:
        _check_range(start, stop, self.size)
        for position in range(start, stop):
            yield self._target_at(position)

    def _target_at(self, position: int) -> TrancoDomain:
        draw = _mix64(_mix64(position + 1) ^ self._seed_mix)
        rank = position + 1
        name = f"synth{rank:08d}.test"
        if draw % 1000 >= self.quic_permille:
            return TrancoDomain(rank=rank, name=name, cdn=None, address=None)
        cdn, asns = self._hosts[(draw // 1000) % len(self._hosts)]
        asn = asns[position % len(asns)]
        address = self._asdb.address_in_asn(asn, position)
        return TrancoDomain(rank=rank, name=name, cdn=cdn, address=address)


def _check_range(start: int, stop: int, size: int) -> None:
    if not 0 <= start <= stop <= size:
        raise InvalidOverride(f"target range [{start}, {stop}) outside [0, {size}]")


#: Registered source kinds: spec ``kind`` → builder taking the spec.
_SOURCE_KINDS: Dict[str, Callable[[Dict[str, Any]], TargetSource]] = {
    TrancoSource.KIND: lambda spec: TrancoSource(
        list_size=int(spec["list_size"]), seed=int(spec["seed"])
    ),
    SyntheticSource.KIND: lambda spec: SyntheticSource(
        count=int(spec["count"]),
        seed=int(spec["seed"]),
        quic_permille=int(spec.get("quic_permille", 300)),
    ),
}


def source_from_spec(spec: Dict[str, Any]) -> TargetSource:
    """Rebuild a source from its ``spec()`` document (wire/CLI entry)."""
    if not isinstance(spec, dict):
        raise InvalidOverride(f"target source spec must be a dict, got {type(spec).__name__}")
    kind = spec.get("kind")
    builder = _SOURCE_KINDS.get(kind)
    if builder is None:
        raise InvalidOverride(
            f"unknown target source kind {kind!r}; expected one of {sorted(_SOURCE_KINDS)}"
        )
    try:
        return builder(spec)
    except InvalidOverride:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidOverride(f"malformed {kind!r} source spec: {exc!r}")


def shard_ranges(size: int, shard_size: int) -> List[Tuple[int, int]]:
    """Split ``[0, size)`` into consecutive ``shard_size`` ranges (the
    last one ragged). A list of 2-tuples, not target data — 1M targets
    at shard 5k is 200 tuples."""
    if shard_size <= 0:
        raise InvalidOverride("shard size must be positive")
    return [(start, min(start + shard_size, size)) for start in range(0, size, shard_size)]
