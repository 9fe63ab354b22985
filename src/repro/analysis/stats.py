"""Small statistics toolkit (medians, percentiles, CDFs).

The paper reports medians, 50 % percentile intervals (Figures 9, 15),
and CDFs (Figures 8, 14); these helpers compute exactly those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple


def _clean(values: Iterable[Optional[float]]) -> List[float]:
    return [v for v in values if v is not None and not math.isnan(v)]


def median(values: Iterable[Optional[float]]) -> Optional[float]:
    """Median ignoring ``None``/NaN entries; ``None`` if empty."""
    data = sorted(_clean(values))
    if not data:
        return None
    n = len(data)
    mid = n // 2
    if n % 2:
        return data[mid]
    return (data[mid - 1] + data[mid]) / 2.0


def percentile(values: Iterable[Optional[float]], q: float) -> Optional[float]:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    data = sorted(_clean(values))
    if not data:
        return None
    if len(data) == 1:
        return data[0]
    rank = q / 100.0 * (len(data) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return data[low]
    frac = rank - low
    return data[low] * (1 - frac) + data[high] * frac


def percentile_interval(
    values: Iterable[Optional[float]], width: float = 50.0
) -> Optional[Tuple[float, float]]:
    """Central interval covering ``width`` percent of the data — the
    "50 % percentile interval" of Figures 9/15."""
    if not 0.0 < width <= 100.0:
        raise ValueError(f"interval width must be in (0, 100], got {width}")
    data = _clean(values)
    if not data:
        return None
    tail = (100.0 - width) / 2.0
    low = percentile(data, tail)
    high = percentile(data, 100.0 - tail)
    assert low is not None and high is not None
    return (low, high)


def cdf(values: Iterable[Optional[float]]) -> List[Tuple[float, float]]:
    """Empirical CDF as ``(value, probability)`` points."""
    data = sorted(_clean(values))
    n = len(data)
    return [(value, (i + 1) / n) for i, value in enumerate(data)]


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary used by experiment printouts."""

    count: int
    median: Optional[float]
    p25: Optional[float]
    p75: Optional[float]
    minimum: Optional[float]
    maximum: Optional[float]

    def format(self, unit: str = "ms") -> str:
        if self.count == 0 or self.median is None:
            return "n=0"
        return (
            f"n={self.count} median={self.median:.1f}{unit} "
            f"IQR=[{self.p25:.1f}, {self.p75:.1f}] "
            f"range=[{self.minimum:.1f}, {self.maximum:.1f}]"
        )


def summarize(values: Iterable[Optional[float]]) -> Summary:
    data = _clean(values)
    return Summary(
        count=len(data),
        median=median(data),
        p25=percentile(data, 25.0),
        p75=percentile(data, 75.0),
        minimum=min(data) if data else None,
        maximum=max(data) if data else None,
    )
